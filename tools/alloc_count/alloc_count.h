// Process-wide heap-allocation counters for the zero-allocation gates.
//
// alloc_count.cc replaces the global operator new/delete with versions that
// count every allocation and forward to malloc/free, so behaviour is
// unchanged. Only the gate test binary (tests/alloc_gate_test) compiles it
// in; the libraries and every other binary keep the default allocator. A
// gate samples the counters at the edges of its measured window and asserts
// the difference is zero.

#ifndef TOOLS_ALLOC_COUNT_ALLOC_COUNT_H_
#define TOOLS_ALLOC_COUNT_ALLOC_COUNT_H_

#include <cstdint>

namespace newtos {

// Allocations and requested bytes since process start.
uint64_t AllocCount();
uint64_t AllocBytes();

}  // namespace newtos

#endif  // TOOLS_ALLOC_COUNT_ALLOC_COUNT_H_

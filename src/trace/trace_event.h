// Trace event model: fixed-size POD records for the causal tracing subsystem.
//
// A TraceEvent is 32 bytes of plain data — no strings, no pointers, no
// ownership. Names and tracks are interned up front (setup time) into small
// integer ids; the hot recording path only ever copies one of these PODs
// into a preallocated ring, which is what keeps the zero-allocations-per-event
// gate (EngineAllocGate in tests/alloc_gate_test.cc) green with tracing
// compiled in.
//
// Event kinds map onto the Chrome trace-event vocabulary the exporter emits:
//   span begin/end   — synchronous slices on one track (server service time);
//                      must nest properly per track, like a call stack
//   complete         — a span whose duration is known at record time: one
//                      record instead of a begin/end pair (`value` = duration
//                      in ps). The hottest producers (server bursts) use this
//                      to halve their record count. Children must be recorded
//                      after their parent, in begin-time order
//   async begin/end  — slices that may overlap on one track, paired by the
//                      `flow` id (a message in flight inside a channel)
//   instant          — a point marker (poll/halt, crash, wire drop)
//   counter          — a sampled value (queue depth, core utilization)

#ifndef SRC_TRACE_TRACE_EVENT_H_
#define SRC_TRACE_TRACE_EVENT_H_

#include <cstdint>
#include <type_traits>

#include "src/sim/time.h"

namespace newtos {

// Interned identifiers. 16 bits each: no experiment in this repo approaches
// 65k distinct event names or tracks, and keeping them small keeps the event
// a 32-byte POD.
using NameId = uint16_t;
using TrackId = uint16_t;

enum class TraceEventType : uint8_t {
  kSpanBegin = 0,
  kSpanEnd,
  kComplete,
  kAsyncBegin,
  kAsyncEnd,
  kInstant,
  kCounter,
};

struct TraceEvent {
  SimTime ts = 0;      // simulated time, picoseconds
  uint64_t flow = 0;   // causal id: packet flow for spans, pairing id for async
  int64_t value = 0;   // counter value (kCounter) or duration ps (kComplete)
  NameId name = 0;
  TrackId track = 0;
  TraceEventType type = TraceEventType::kInstant;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) <= 32);

// Causal ids extracted from a message moving through a channel. `hop` pairs
// the async begin (enqueue) with its end (dequeue) and must be unique per
// in-flight message (packet id); `flow` is the causal trace id shared by
// every packet of one flow (Packet::trace_id). Zero means "not traceable".
//
// Components that move user-defined payloads (SimChannel<T>) call
// TraceIdsOf(msg) unqualified; this fallback keeps untraceable payload types
// compiling, and os/message.h overloads it for Msg via ADL.
struct TraceIds {
  uint64_t hop = 0;
  uint64_t flow = 0;
};

template <typename T>
inline TraceIds TraceIdsOf(const T&) {
  return {};
}

}  // namespace newtos

#endif  // SRC_TRACE_TRACE_EVENT_H_

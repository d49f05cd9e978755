// RunPipeline: the Tab. 3 real-thread pipeline on the runtime engine.
//
// A producer, `stages` forwarding stages and a consumer are RuntimeEngine
// roles chained by ThreadChannel<uint64_t> rings, producer -> s1 -> ... ->
// sN -> consumer, the shape of the multiserver fast path (driver -> ip ->
// tcp) with no protocol work in between. Every role is non-blocking like a
// live server: a stage forwards a token slot to slot, leaving it in its
// input ring while the output is full, and parks on its IdleGate when it
// can make no progress. The Tab. 3 microbenchmark times it; the Pipeline
// tests run it under TSan and on one CPU.

#ifndef SRC_RUNTIME_PIPELINE_H_
#define SRC_RUNTIME_PIPELINE_H_

#include <cstddef>
#include <cstdint>

namespace newtos {

struct PipelineParams {
  int stages = 3;  // interior stages between producer and consumer
  size_t ring_capacity = 1024;
  uint64_t messages = 1'000'000;
  bool pin_threads = false;  // role i -> cpu i, if it exists (unpinned otherwise)
};

struct PipelineResult {
  uint64_t messages = 0;
  double seconds = 0.0;  // producer's first push to the consumer's last pop
  double msgs_per_sec = 0.0;
  uint64_t checksum = 0;  // fold of all payloads: proves nothing was lost
};

// Runs the pipeline to completion and reports throughput. Every role runs
// on its own engine thread, so the calling thread and its affinity are left
// as they were. Thread-safe to call repeatedly (each call builds a fresh
// pipeline).
PipelineResult RunPipeline(const PipelineParams& params);

}  // namespace newtos

#endif  // SRC_RUNTIME_PIPELINE_H_

// Tab. 3 — Channel microbenchmarks on the real machine (google-benchmark).
//
// Unlike the other benches, these numbers come from actually executing the
// lock-free SpscRing on the host CPU: push/pop cost, empty-poll cost, cached
// vs. uncached index reads, and the end-to-end real-thread pipeline. On a
// single-CPU container the threaded pipeline time-slices; the single-thread
// operation costs are the stable, comparable part.

#include <benchmark/benchmark.h>

#include "src/chan/spsc_ring.h"
#include "src/runtime/pipeline.h"

namespace newtos {
namespace {

void BM_PushPopPaired(benchmark::State& state) {
  SpscRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.TryPush(v++));
    benchmark::DoNotOptimize(ring.TryPop());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PushPopPaired);

void BM_EmptyPoll(benchmark::State& state) {
  SpscRing<uint64_t> ring(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.TryPop());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EmptyPoll);

void BM_FullPush(benchmark::State& state) {
  SpscRing<uint64_t> ring(16);
  while (ring.TryPush(1)) {
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.TryPush(1));  // always fails: full-detect cost
  }
}
BENCHMARK(BM_FullPush);

void BM_BurstPushThenPop(benchmark::State& state) {
  const size_t burst = static_cast<size_t>(state.range(0));
  SpscRing<uint64_t> ring(4096);
  for (auto _ : state) {
    for (size_t i = 0; i < burst; ++i) {
      benchmark::DoNotOptimize(ring.TryPush(i));
    }
    for (size_t i = 0; i < burst; ++i) {
      benchmark::DoNotOptimize(ring.TryPop());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * burst));
}
BENCHMARK(BM_BurstPushThenPop)->Arg(8)->Arg(64)->Arg(512);

void BM_RealThreadPipeline(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PipelineParams p;
    p.stages = stages;
    p.messages = 100'000;
    const PipelineResult r = RunPipeline(p);
    benchmark::DoNotOptimize(r.checksum);
    state.SetIterationTime(r.seconds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100'000);
}
BENCHMARK(BM_RealThreadPipeline)->Arg(1)->Arg(3)->UseManualTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace newtos

BENCHMARK_MAIN();

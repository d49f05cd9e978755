// Real-thread pipeline tests (the userspace affinity proxy).
//
// Kept small: this container may have a single CPU, so the threads time-slice
// rather than run in parallel. Correctness (no loss, no reorder) must hold
// either way — that is precisely what the lock-free rings guarantee.

#include "src/host/pipeline.h"

#include <gtest/gtest.h>
#include <sched.h>

#include "src/host/affinity.h"

namespace newtos {
namespace {

TEST(Affinity, CpuCountPositive) { EXPECT_GE(AvailableCpuCount(), 1); }

TEST(Affinity, CpuCountFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  const int before = AvailableCpuCount();
  EXPECT_EQ(before, CPU_COUNT(&saved));
  ASSERT_TRUE(PinThisThreadToCpu(0));
  EXPECT_EQ(AvailableCpuCount(), 1);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(AvailableCpuCount(), before);
}

TEST(Affinity, PinWrapsAroundAvailableCpus) {
  // Pinning to a large index wraps mod the CPU count and succeeds.
  EXPECT_TRUE(PinThisThreadToCpu(1000));
  EXPECT_TRUE(PinThisThreadToCpu(0));
}

TEST(Pipeline, AllMessagesSurviveOneStage) {
  PipelineParams p;
  p.stages = 1;
  p.messages = 20'000;
  const PipelineResult r = RunPipeline(p);
  EXPECT_EQ(r.messages, 20'000u);
  EXPECT_GT(r.msgs_per_sec, 0.0);
}

TEST(Pipeline, AllMessagesSurviveThreeStages) {
  PipelineParams p;
  p.stages = 3;
  p.messages = 20'000;
  const PipelineResult r = RunPipeline(p);
  EXPECT_EQ(r.messages, 20'000u);
}

TEST(Pipeline, ChecksumIndependentOfRingCapacity) {
  // The token fold must not depend on scheduling or capacity: same inputs,
  // same checksum (stage work of 0 keeps tokens unmodified).
  PipelineParams small;
  small.stages = 2;
  small.messages = 5'000;
  small.ring_capacity = 8;
  PipelineParams large = small;
  large.ring_capacity = 4096;
  EXPECT_EQ(RunPipeline(small).checksum, RunPipeline(large).checksum);
}

TEST(Pipeline, ZeroStagesDegeneratesToProducerConsumer) {
  PipelineParams p;
  p.stages = 0;
  p.messages = 10'000;
  const PipelineResult r = RunPipeline(p);
  EXPECT_EQ(r.messages, 10'000u);
  // Untouched tokens: checksum is the arithmetic series sum.
  EXPECT_EQ(r.checksum, 10'000ull * 9'999ull / 2);
}

TEST(Pipeline, PinningDoesNotChangeResults) {
  PipelineParams p;
  p.stages = 2;
  p.messages = 5'000;
  p.pin_threads = true;
  const PipelineResult r = RunPipeline(p);
  EXPECT_EQ(r.messages, 5'000u);
}

TEST(Pipeline, PerStageWorkSlowsThroughput) {
  PipelineParams fast;
  fast.stages = 1;
  fast.messages = 5'000;
  PipelineParams slow = fast;
  slow.work_per_stage = 2'000;
  const double f = RunPipeline(fast).msgs_per_sec;
  const double s = RunPipeline(slow).msgs_per_sec;
  EXPECT_GT(f, 0.0);
  EXPECT_GT(s, 0.0);
  // Heavily loaded stages cannot be faster (allow wide scheduling noise).
  EXPECT_LT(s, f * 1.5);
}

}  // namespace
}  // namespace newtos

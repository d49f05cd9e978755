// The affinity helpers and the Tab. 3 real-thread pipeline built on them.
//
// Kept small: the host may have a single CPU, so the roles time-slice rather
// than run in parallel. Correctness (no loss, no reorder) must hold either
// way, and on one CPU the roles must park rather than spin.

#include "src/runtime/pipeline.h"

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
  // Pinning to a large index wraps mod the CPU count and succeeds. The mask
  // is restored, so later tests in this process start unpinned.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_TRUE(PinThisThreadToCpu(1000));
  EXPECT_TRUE(PinThisThreadToCpu(0));
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
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
  // same checksum.
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

TEST(Pipeline, CallerAffinityIsUntouched) {
  // Every role runs on an engine thread, so pinning them must leave the
  // calling thread's affinity mask as it was.
  cpu_set_t before;
  CPU_ZERO(&before);
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  PipelineParams p;
  p.stages = 3;
  p.messages = 5'000;
  p.pin_threads = true;
  EXPECT_EQ(RunPipeline(p).messages, 5'000u);
  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

}  // namespace
}  // namespace newtos

// Scenario runner determinism: the same script and seed must reproduce the
// same bytes — across repeated runs, across lane counts for incast, and with
// tracing toggled on. One lossy-WAN script is golden-pinned end-to-end.

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "src/scenario/parser.h"
#include "src/scenario/runner.h"
#include "src/trace/latency_decomp.h"

namespace newtos::scenario {
namespace {

Script Parse(const std::string& text) {
  Script s;
  ParseError err;
  EXPECT_TRUE(ParseScript(text, "inline.nsc", &s, &err)) << err.Format();
  return s;
}

Script Load(const std::string& rel) {
  Script s;
  ParseError err;
  EXPECT_TRUE(LoadScript(std::string(NEWTOS_SCENARIO_DIR) + "/" + rel, &s, &err))
      << err.Format();
  return s;
}

// A short lossy-WAN p2p scenario, cheap enough to run several times.
const char* kLossyP2p =
    "scenario det_lossy\n"
    "seed 9\n"
    "freq 3.6GHz\n"
    "warmup 20ms\n"
    "run_for 60ms\n"
    "burst 512KiB\n"
    "link rtt 4ms\n"
    "link loss 0.01 seed 42\n";

TEST(ScenarioRunnerTest, RepeatRunsAreBitIdentical) {
  const Script s = Parse(kLossyP2p);
  ScenarioRunner runner;
  const ScenarioOutcome a = runner.RunOne(s, s.freqs[0]);
  const ScenarioOutcome b = runner.RunOne(s, s.freqs[0]);
  EXPECT_EQ(a.cell.digest, b.cell.digest);
  EXPECT_EQ(a.cell.delivered, b.cell.delivered);
  EXPECT_EQ(a.window_events, b.window_events);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].second, b.counters[i].second) << a.counters[i].first;
  }
  EXPECT_GT(a.Counter("retransmits"), 0u);
  EXPECT_GT(a.Counter("link_loss_drops"), 0u);
}

TEST(ScenarioRunnerTest, SeedChangesTheRun) {
  const Script a = Parse(kLossyP2p);
  Script b = a;
  b.seed = 10;
  ScenarioRunner runner;
  // A different script seed moves the loss pattern only via the fault plan;
  // the link loss seed is its own knob, so delivered bytes may match — but
  // the digest history almost surely differs once any fault is armed. Use a
  // channel fault to make the seed matter.
  Script fa = Parse(std::string(kLossyP2p) + "inject chan_drop ip prob 0.02\n");
  Script fb = fa;
  fb.seed = 10;
  const ScenarioOutcome ra = runner.RunOne(fa, fa.freqs[0]);
  const ScenarioOutcome rb = runner.RunOne(fb, fb.freqs[0]);
  EXPECT_NE(ra.cell.digest, rb.cell.digest);
}

TEST(ScenarioRunnerTest, TracingDoesNotPerturbTheRun) {
  const Script s = Parse(kLossyP2p);
  ScenarioRunner plain;
  bool trace_seen = false;
  RunnerOptions ro;
  ro.force_trace = true;
  ro.on_trace = [&trace_seen](const TraceRecorder& rec) {
    trace_seen = true;
    EXPECT_GT(rec.dropped() + rec.size(), 0u);
  };
  ScenarioRunner traced(std::move(ro));
  const ScenarioOutcome a = plain.RunOne(s, s.freqs[0]);
  const ScenarioOutcome b = traced.RunOne(s, s.freqs[0]);
  EXPECT_TRUE(trace_seen);
  EXPECT_EQ(a.cell.digest, b.cell.digest);
  EXPECT_EQ(a.cell.delivered, b.cell.delivered);
}

TEST(ScenarioRunnerTest, IncastDigestIsLaneCountInvariant) {
  const Script s = Load("wan/wan_incast.nsc");
  uint64_t digest1 = 0;
  uint64_t delivered1 = 0;
  for (int lanes : {1, 2, 4}) {
    RunnerOptions ro;
    ro.lanes_override = lanes;
    ScenarioRunner runner(std::move(ro));
    const ScenarioOutcome o = runner.RunOne(s, s.freqs[0]);
    EXPECT_TRUE(o.pass) << "lanes=" << lanes;
    if (lanes == 1) {
      digest1 = o.cell.digest;
      delivered1 = o.cell.delivered;
      EXPECT_NE(digest1, 0u);
      // The incast rig publishes exactly the counters it measures.
      ASSERT_EQ(o.counters.size(), std::size(kIncastCounterNames));
      for (size_t i = 0; i < o.counters.size(); ++i) {
        EXPECT_EQ(o.counters[i].first, kIncastCounterNames[i]);
      }
    } else {
      EXPECT_EQ(o.cell.digest, digest1) << "lanes=" << lanes;
      EXPECT_EQ(o.cell.delivered, delivered1) << "lanes=" << lanes;
    }
  }
}

TEST(ScenarioRunnerTest, GoldenLossyWanScriptStillPins) {
  // wan_golden.nsc carries an `expect digest` pin of its own run; if an
  // engine change legitimately moves the stream history, update the script's
  // pinned digest consciously.
  const Script s = Load("wan/wan_golden.nsc");
  ScenarioRunner runner;
  const ScenarioOutcome o = runner.RunOne(s, s.freqs[0]);
  for (const ExpectResult& r : o.expects) {
    EXPECT_TRUE(r.pass) << "wan_golden.nsc:" << r.line << ": " << r.what;
  }
  EXPECT_TRUE(o.pass);
}

TEST(ScenarioRunnerTest, WindowedFaultFiresOnlyInsideWindow) {
  // The drop tap is armed for [30ms, 50ms) of an 80ms run: drops must be
  // observed, and the two halves of the run outside the window must deliver.
  const Script s = Parse(
      "scenario windowed\n"
      "seed 5\n"
      "freq 3.6GHz\n"
      "warmup 20ms\n"
      "run_for 60ms\n"
      "burst 512KiB\n"
      "at 30ms until 50ms inject chan_drop ip prob 0.05\n");
  ScenarioRunner runner;
  const ScenarioOutcome o = runner.RunOne(s, s.freqs[0]);
  EXPECT_GT(o.Counter("chan_drops"), 0u);
  EXPECT_TRUE(o.cell.integrity);
  EXPECT_TRUE(o.cell.progress);
  // Same script, window moved past the end of the run: no drops.
  Script quiet = s;
  quiet.injects[0].from = 81 * kMillisecond;
  quiet.injects[0].until = 82 * kMillisecond;
  const ScenarioOutcome q = runner.RunOne(quiet, quiet.freqs[0]);
  EXPECT_EQ(q.Counter("chan_drops"), 0u);
}

TEST(ScenarioRunnerTest, DvfsStepKeepsTheStreamAlive) {
  const Script s = Parse(
      "scenario step\n"
      "seed 5\n"
      "freq 3.6GHz\n"
      "warmup 20ms\n"
      "run_for 60ms\n"
      "burst 512KiB\n"
      "measure_at 40ms\n"
      "at 40ms set freq 1.2GHz\n");
  ScenarioRunner runner;
  const ScenarioOutcome a = runner.RunOne(s, s.freqs[0]);
  EXPECT_TRUE(a.cell.integrity);
  EXPECT_TRUE(a.cell.progress);  // delivery kept growing after the step
  const ScenarioOutcome b = runner.RunOne(s, s.freqs[0]);
  EXPECT_EQ(a.cell.digest, b.cell.digest);
  // The step costs throughput versus staying fast the whole run.
  Script flat = s;
  flat.freq_steps.clear();
  const ScenarioOutcome f = runner.RunOne(flat, flat.freqs[0]);
  EXPECT_GT(f.cell.delivered, a.cell.delivered);
}

TEST(ScenarioRunnerTest, LatencyDecompositionReportIsDeterministic) {
  const Script s = Parse(kLossyP2p);
  auto decompose = [&s] {
    LatencyDecomposer decomp;
    RunnerOptions ro;
    ro.force_trace = true;
    ro.on_trace = [&decomp](const TraceRecorder& rec) { decomp.Consume(rec); };
    ScenarioRunner runner(std::move(ro));
    runner.RunOne(s, s.freqs[0]);
    EXPECT_GT(decomp.episodes(), 0u);
    EXPECT_GT(decomp.hops(), decomp.episodes());  // multiple stages per packet
    std::ostringstream stages;
    std::ostringstream cdf;
    decomp.StageTable().WriteCsv(stages);
    decomp.CdfTable().WriteCsv(cdf);
    return stages.str() + "\n---\n" + cdf.str();
  };
  const std::string a = decompose();
  const std::string b = decompose();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ScenarioRunnerTest, FailingExpectFailsTheOutcome) {
  const Script s = Parse(
      "scenario fail\n"
      "seed 5\n"
      "freq 3.6GHz\n"
      "warmup 10ms\n"
      "run_for 30ms\n"
      "burst 64KiB\n"
      "expect counter crashes > 0\n"   // nothing crashes in a clean run
      "expect integrity\n");
  ScenarioRunner runner;
  const ScenarioOutcome o = runner.RunOne(s, s.freqs[0]);
  ASSERT_EQ(o.expects.size(), 2u);
  EXPECT_FALSE(o.expects[0].pass);
  EXPECT_EQ(o.expects[0].line, 7);
  EXPECT_TRUE(o.expects[1].pass);
  EXPECT_FALSE(o.pass);
}

TEST(ScenarioRunnerTest, DeliveredByDeadlineUsesTheSnapshot) {
  const Script s = Parse(
      "scenario deadline\n"
      "seed 5\n"
      "freq 3.6GHz\n"
      "warmup 10ms\n"
      "run_for 40ms\n"
      "burst 1MiB\n"
      "expect delivered >= 1 by 20ms\n"
      "expect delivered >= 1000GiB by 20ms\n");
  ScenarioRunner runner;
  const ScenarioOutcome o = runner.RunOne(s, s.freqs[0]);
  ASSERT_EQ(o.expects.size(), 2u);
  EXPECT_TRUE(o.expects[0].pass);
  EXPECT_FALSE(o.expects[1].pass);
}

}  // namespace
}  // namespace newtos::scenario

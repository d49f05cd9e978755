// Lossy-WAN sweep over the scenario DSL: loss rate × RTT grid.
//
// Each grid cell is a generated .nsc script (the same surface the checked-in
// scenarios/wan/ family uses) run through ScenarioRunner with tracing forced
// on, so the per-packet latency percentiles come from the same async-hop
// decomposition the newtos_scenario --decomp tool reports. Per cell:
//
//   goodput      application bytes delivered over the measurement window
//   p50/p95/p99  end-to-end per-packet pipeline latency (LatencyDecomposer
//                episodes over the trace ring — late-window steady state once
//                the ring wraps)
//   retransmits / link_loss_drops  the TCP cost of the configured loss
//
// Every value is simulated, so the table is deterministic; it is printed and
// written to results/wan_sweep.csv next to the binary like every fig/tab
// bench. A full grid takes tens of seconds, so it is not a ctest entry
// (--quick runs a 4-cell smoke grid into the same file).

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/scenario/parser.h"
#include "src/scenario/runner.h"
#include "src/trace/latency_decomp.h"

namespace newtos::scenario {
namespace {

struct Cell {
  double loss = 0.0;
  SimTime rtt = 0;
  ScenarioOutcome outcome;
  SimTime p50 = 0;
  SimTime p95 = 0;
  SimTime p99 = 0;
  uint64_t episodes = 0;
};

std::string CellScript(double loss, SimTime rtt, SimTime run_for) {
  // The generated text is the same dialect as scenarios/wan/*.nsc — the
  // bench is a consumer of the DSL, not a parallel code path into the
  // engine, so any lowering bug shows up here too.
  std::string s;
  s += "scenario wan_sweep_cell\n";
  s += "seed 7\n";
  s += "freq 3.6GHz\n";
  s += "warmup 60ms\n";
  s += "run_for " + std::to_string(run_for / kMillisecond) + "ms\n";
  s += "burst 4MiB\n";
  s += "link rtt " + std::to_string(rtt / kMillisecond) + "ms\n";
  if (loss > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "link loss %g seed 42\n", loss);
    s += buf;
  }
  return s;
}

Cell RunCell(double loss, SimTime rtt, SimTime run_for) {
  Script script;
  ParseError err;
  if (!ParseScript(CellScript(loss, rtt, run_for), "<wan_sweep>", &script, &err)) {
    std::fprintf(stderr, "wan_sweep: generated script rejected:\n%s\n", err.Format().c_str());
    std::exit(1);
  }

  Cell cell;
  cell.loss = loss;
  cell.rtt = rtt;
  LatencyDecomposer decomp;
  RunnerOptions ro;
  ro.force_trace = true;
  ro.on_trace = [&decomp](const TraceRecorder& rec) { decomp.Consume(rec); };
  ScenarioRunner runner(std::move(ro));
  cell.outcome = runner.RunOne(script, script.freqs[0]);
  cell.p50 = decomp.e2e().P50();
  cell.p95 = decomp.e2e().P95();
  cell.p99 = decomp.e2e().P99();
  cell.episodes = decomp.episodes();
  return cell;
}

double GoodputGbps(const Cell& c, SimTime run_for) {
  return static_cast<double>(c.outcome.cell.delivered) * 8.0 / ToSeconds(run_for) / 1e9;
}

int Run(int argc, char** argv) {
  std::vector<double> losses = {0.0, 0.001, 0.01, 0.03};
  std::vector<SimTime> rtts = {10 * kMillisecond, 40 * kMillisecond, 80 * kMillisecond};
  SimTime run_for = 200 * kMillisecond;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      losses = {0.0, 0.01};
      rtts = {10 * kMillisecond, 40 * kMillisecond};
      run_for = 80 * kMillisecond;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  Table t({"loss", "rtt_ms", "goodput_gbps", "p50_us", "p95_us", "p99_us", "retransmits",
           "link_loss_drops", "delivered_bytes", "latency_episodes", "integrity"});
  for (SimTime rtt : rtts) {
    for (double loss : losses) {
      const Cell c = RunCell(loss, rtt, run_for);
      t.AddRow({Table::Num(loss, 4), Table::Int(rtt / kMillisecond),
                Table::Num(GoodputGbps(c, run_for), 3), Table::Num(ToSeconds(c.p50) * 1e6, 1),
                Table::Num(ToSeconds(c.p95) * 1e6, 1), Table::Num(ToSeconds(c.p99) * 1e6, 1),
                Table::Int(static_cast<int64_t>(c.outcome.Counter("retransmits"))),
                Table::Int(static_cast<int64_t>(c.outcome.Counter("link_loss_drops"))),
                Table::Int(static_cast<int64_t>(c.outcome.cell.delivered)),
                Table::Int(static_cast<int64_t>(c.episodes)),
                c.outcome.cell.integrity ? "yes" : "no"});
    }
  }
  t.Print(std::cout, "wan_sweep — lossy-WAN grid over the scenario DSL, " +
                         std::to_string(run_for / kMillisecond) + " ms window");
  return WriteBenchCsv(t, argv[0], "wan_sweep") ? 0 : 1;
}

}  // namespace
}  // namespace newtos::scenario

int main(int argc, char** argv) { return newtos::scenario::Run(argc, argv); }

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
// Results land in BENCH_scenario.json at the repo root. host_cpus is
// recorded honestly so a number produced on a loaded 1-core CI box is never
// mistaken for a workstation run. Wall-clock insensitive in its metrics (all
// simulated time), but a full grid takes tens of seconds — run manually, not
// from ctest.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/host/affinity.h"
#include "src/metrics/report.h"
#include "src/scenario/parser.h"
#include "src/scenario/runner.h"
#include "src/trace/latency_decomp.h"

namespace newtos::scenario {
namespace {

#ifndef NEWTOS_REPO_ROOT
#define NEWTOS_REPO_ROOT "."
#endif

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
  std::string out = std::string(NEWTOS_REPO_ROOT) + "/BENCH_scenario.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  if (quick) {
    losses = {0.0, 0.01};
    rtts = {10 * kMillisecond, 40 * kMillisecond};
    run_for = 80 * kMillisecond;
  }

  std::printf("wan_sweep — lossy-WAN grid over the scenario DSL, %lld ms window\n",
              static_cast<long long>(run_for / kMillisecond));
  std::printf("  %8s %8s %12s %10s %10s %10s %12s %10s\n", "loss", "rtt_ms", "goodput_gbps",
              "p50_us", "p95_us", "p99_us", "retransmits", "loss_drops");

  std::vector<Cell> cells;
  std::string cells_json = "[";
  for (SimTime rtt : rtts) {
    for (double loss : losses) {
      Cell c = RunCell(loss, rtt, run_for);
      std::printf("  %8g %8lld %12.3f %10.1f %10.1f %10.1f %12llu %10llu\n", loss,
                  static_cast<long long>(rtt / kMillisecond), GoodputGbps(c, run_for),
                  ToSeconds(c.p50) * 1e6, ToSeconds(c.p95) * 1e6, ToSeconds(c.p99) * 1e6,
                  static_cast<unsigned long long>(c.outcome.Counter("retransmits")),
                  static_cast<unsigned long long>(c.outcome.Counter("link_loss_drops")));
      JsonWriter cw;
      cw.Num("loss", loss, 4)
          .Int("rtt_ms", rtt / kMillisecond)
          .Num("goodput_gbps", GoodputGbps(c, run_for), 3)
          .Num("p50_us", ToSeconds(c.p50) * 1e6, 1)
          .Num("p95_us", ToSeconds(c.p95) * 1e6, 1)
          .Num("p99_us", ToSeconds(c.p99) * 1e6, 1)
          .Uint("retransmits", c.outcome.Counter("retransmits"))
          .Uint("link_loss_drops", c.outcome.Counter("link_loss_drops"))
          .Uint("delivered_bytes", c.outcome.cell.delivered)
          .Uint("latency_episodes", c.episodes)
          .Bool("integrity", c.outcome.cell.integrity);
      std::string rendered = cw.Finish();
      while (!rendered.empty() && rendered.back() == '\n') {
        rendered.pop_back();
      }
      cells_json += rendered;
      if (cells.size() + 1 < losses.size() * rtts.size()) {
        cells_json += ",";
      }
      cells.push_back(std::move(c));
    }
  }
  cells_json += "]";

  JsonWriter w;
  w.Str("bench", "wan_sweep")
      .Str("scenario", "lossy_wan_grid_via_nsc_dsl")
      .Int("sim_window_ms", run_for / kMillisecond)
      .Int("host_cpus", AvailableCpuCount())
      .Bool("quick", quick)
      .Raw("cells", cells_json);
  if (!WriteFileChecked(out, w.Finish())) {
    std::fprintf(stderr, "wan_sweep: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("  wrote %s (%zu cells)\n", out.c_str(), cells.size());
  return 0;
}

}  // namespace
}  // namespace newtos::scenario

int main(int argc, char** argv) { return newtos::scenario::Run(argc, argv); }

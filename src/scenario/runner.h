// ScenarioRunner: arms a compiled Script against a testbed and judges it.
//
// The scenarios/tab7 scripts are the one definition of the Tab. 7 resilience
// matrix: RunCampaignOrder runs them frequency-outer, script-inner, and
// CampaignTable renders the cells as the CSV that bench/tab7_fault_campaign
// writes and tests/golden/tab7_fault_campaign.csv pins byte for byte. The p2p
// rig is the campaign cell: a fresh testbed steered to the run's frequency,
// checkpointed TCP, the watchdog over every stage, one fault plan seeded by
// (seed, first inject, frequency), a bulk-TCP sender and the invariant
// checkers. Everything a script can add beyond that (link shaping, DVFS
// steps, tracing, extra expects) is armed only when the script asks for it,
// so unused features contribute zero simulation events.
//
// Steady-state allocation: every piece of per-event machinery the runner arms
// (fault taps, the link shaper, integrity/progress hooks, trace recording) is
// allocation-free per event; all script state is resolved before the sim
// starts. ScenarioAllocGate (tests/alloc_gate_test.cc) pins the whole
// interpreter to 0 allocs/event over the measurement window.

#ifndef SRC_SCENARIO_RUNNER_H_
#define SRC_SCENARIO_RUNNER_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/table.h"
#include "src/scenario/script.h"
#include "src/trace/recorder.h"

namespace newtos::scenario {

// One cell of the resilience matrix: a run judged by the campaign verdict.
//   injected    the fault actually fired (trials are probabilistic)
//   detected    the watchdog escalated the silent server (server faults)
//   recovered   the microreboot completed, within the recovery bound
//   integrity   no corrupt segment was accepted; bytes kept arriving
//   progress    the delivery counter never went flat past the stall bound
// A cell passes when everything applicable holds.
struct CampaignCell {
  FaultClass cls = FaultClass::kChanDrop;
  std::string target;
  FreqKhz stack_freq = 0;

  uint64_t injected = 0;       // discrete injections (triggers + trials hit)
  bool detected = false;       // server faults only
  bool recovered = false;
  double detect_ms = -1.0;     // silence begin -> watchdog escalation
  double recover_ms = -1.0;    // escalation -> reboot complete
  uint64_t delivered = 0;      // bytes the peer application accepted
  uint64_t digest = 0;         // stream-integrity running checksum
  bool integrity = false;
  bool progress = false;
  bool pass = false;
};

// The resilience matrix (Tab. 7) as a table: one row per cell, in order.
Table CampaignTable(const std::vector<CampaignCell>& cells);

// One evaluated `expect` line.
struct ExpectResult {
  int line = 0;       // script line of the expect directive
  bool pass = false;
  std::string what;   // human-readable check + observed value
};

// Everything one (script, frequency) run produced.
struct ScenarioOutcome {
  std::string name;
  FreqKhz freq = 0;

  // The campaign verdict for this run.
  CampaignCell cell;

  // (name, value) for every counter the rig measures, in its list's order:
  // kCounterNames for the p2p rig, kIncastCounterNames for the incast rig.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<ExpectResult> expects;

  // All expects passed (a script with no expects falls back to the campaign
  // cell verdict).
  bool pass = false;

  // Events processed inside the measurement window (between warmup and end
  // of run) — the denominator for the allocs-per-event gate.
  uint64_t window_events = 0;

  uint64_t Counter(const std::string& counter_name) const;
};

struct RunnerOptions {
  // >0: overrides Script::lanes for incast scenarios (lane-invariance tests).
  int lanes_override = 0;
  // Trace even when the script says `trace off` (latency-decomposition tool).
  bool force_trace = false;
  // Host-side hooks around the measurement window (after WarmUp returns /
  // after RunFor returns). They run while the sim is paused and schedule
  // nothing, so arming them cannot perturb the event schedule.
  std::function<void()> on_window_begin;
  std::function<void()> on_window_end;
  // Called after judging, while the trace recorder is still alive; only
  // fires for traced runs. The recorder's ring holds the run's async hops —
  // feed it to LatencyDecomposer.
  std::function<void(const TraceRecorder&)> on_trace;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(RunnerOptions options = {});

  // Runs `script` at one frequency point.
  ScenarioOutcome RunOne(const Script& script, FreqKhz freq);

  // The resilience matrix: frequency OUTER, script INNER. Every script must
  // declare the same `freq` sweep; otherwise nothing runs, `*error` names
  // the first script whose sweep differs from the first script's, and the
  // call returns false.
  bool RunCampaignOrder(const std::vector<Script>& scripts, std::vector<CampaignCell>* cells,
                        std::string* error);

 private:
  ScenarioOutcome RunP2p(const Script& script, FreqKhz freq);
  ScenarioOutcome RunIncast(const Script& script, FreqKhz freq);

  RunnerOptions options_;
};

// Pass/fail matrix over outcomes: one row per (scenario, frequency) with the
// delivered volume, digest, expect tally and verdict.
Table ScenarioMatrix(const std::vector<ScenarioOutcome>& outcomes);

}  // namespace newtos::scenario

#endif  // SRC_SCENARIO_RUNNER_H_

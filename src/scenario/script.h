// Compiled scenario model: the in-memory form of one .nsc script.
//
// A Script is fully resolved at parse time — every duration in picoseconds,
// every frequency in kHz, every fault a ready FaultSpec, every expect a
// tagged check — so the runner arms it against a testbed without touching
// the text again and without allocating per event while it runs. The
// structure is deliberately plain data: the parser produces it, the runner
// consumes it, tests construct it directly.
//
// Grammar (line-oriented, '#' comments; DESIGN.md §11 has the full story):
//
//   scenario <name>                      # required, first directive
//   seed <n>
//   freq <f> [<f> ...]                   # sweep points, e.g. `freq 3.6GHz 1.2GHz`
//   app_freq <f>
//   warmup <dur> | run_for <dur> | measure_at <dur> | recovery_bound <dur>
//   burst <size> | connections <n>
//   topology p2p | topology incast clients <n> [lanes <n>]
//   tcp sack on|off | tcp tlp on|off | tcp rto_min <dur>
//   link rtt <dur> | link loss <p> [seed <n>] | link rate <r>Gbps
//   link queue <slots> | link reorder <p> <dur>
//   watchdog on|off [interval <dur>] [misses <n>]
//   checkpoint on|off
//   trace on|off
//   inject <fault> [<target>] [prob <p>] [delay <dur>] [slice <cycles>]
//   at <dur> [until <dur>] inject <fault> [...]
//   at <dur> set freq <f>
//   expect injected | detected | integrity | progress
//   expect recovered within <dur>
//   expect delivered >= <size> [by <dur>]
//   expect digest <hex>
//   expect counter <name> <op> <n> | expect counter <name> in <lo>..<hi>
//
// Times are absolute simulation time from t=0 (warmup included), matching
// the fault injector's FaultSpec::at convention.

#ifndef SRC_SCENARIO_SCRIPT_H_
#define SRC_SCENARIO_SCRIPT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/fault/watchdog.h"
#include "src/scenario/defaults.h"
#include "src/sim/time.h"

namespace newtos::scenario {

enum class Topology : uint8_t {
  kP2p,     // Testbed: SUT machine <-> zero-cost peer over one link
  kIncast,  // TcpIncastBed: N clients through the switch fabric, lane-parallel
};

// A scheduled DVFS step: at `at`, re-steer the stack's system cores to
// `freq` (DedicatedSlowPlan with the script's app frequency).
struct FreqStep {
  SimTime at = 0;
  FreqKhz freq = 0;
};

// Link shaping beyond the testbed defaults. Only fields the script set are
// applied; sentinel values mean "leave the rig's default alone".
struct LinkPlan {
  SimTime rtt = -1;            // two-way; -1 = testbed default propagation
  double loss = 0.0;           // seeded Bernoulli per frame, each direction
  uint64_t loss_seed = scenario_defaults::kLinkLossSeed;
  double rate_gbps = 0.0;      // 0 = NIC default line rate
  uint32_t queue_slots = 0;    // 0 = NIC default tx/rx ring depth
  double reorder_prob = 0.0;   // per-frame chance of +reorder_delay on the wire
  SimTime reorder_delay = 0;
};

// One `expect` line, compiled. `line` points back into the script for
// failure reporting.
struct ExpectCheck {
  enum class Kind : uint8_t {
    kInjected,         // the armed fault actually fired (injected > 0)
    kDetected,         // watchdog escalated at least once
    kRecoveredWithin,  // every incident rebooted, each within `bound`
    kIntegrity,        // no corrupt segment accepted && bytes delivered
    kProgress,         // no stall && delivery grew past the measure_at mark
    kDelivered,        // >= `value` bytes delivered (by `deadline` if set)
    kDigest,           // stream digest == `value` (golden pin)
    kCounter,          // named counter vs `op`/`value`(/`high` for kIn)
  };
  enum class Op : uint8_t { kEq, kNe, kGe, kLe, kGt, kLt, kIn };

  Kind kind = Kind::kIntegrity;
  Op op = Op::kGe;
  std::string counter;   // kCounter: name, e.g. "retransmits"
  uint64_t value = 0;    // bytes / digest / counter bound (low bound for kIn)
  uint64_t high = 0;     // kIn: inclusive upper bound
  SimTime bound = 0;     // kRecoveredWithin: per-incident recovery bound
  SimTime deadline = 0;  // kDelivered: absolute check time; 0 = end of run
  int line = 0;          // 1-based script line of the directive
  int col = 0;           // kCounter: 1-based column of the counter name
};

// The counters `expect counter <name> ...` may reference. The parser
// validates names against this list; the runner publishes values for exactly
// this set, in this order (ScenarioRunner asserts the count matches).
inline constexpr const char* kCounterNames[] = {
    "injected",        "delivered",          "chunks",            "retransmits",
    "timeouts",        "fast_retransmits",   "sack_retransmits",  "tlp_probes",
    "ooo_segments",    "corrupt_accepted",   "rx_checksum_drops", "link_loss_drops",
    "rx_ring_drops",   "tx_ring_rejects",    "wire_flips",        "chan_drops",
    "chan_dups",       "chan_delays",        "chan_corrupts",     "crashes",
    "hangs",           "livelocks",          "detections",        "incidents",
    "established",
};
inline constexpr size_t kNumCounters = sizeof(kCounterNames) / sizeof(kCounterNames[0]);

// The subset of kCounterNames the incast rig measures: its clients' TCP
// stats, delivered bytes and established connections, and the runner
// publishes exactly these for it. The others count the p2p testbed's NICs,
// fault injector and watchdog, which an incast script has none of, so the
// parser rejects an `expect counter` on them in an incast script rather than
// let it pass vacuously.
inline constexpr const char* kIncastCounterNames[] = {
    "delivered",        "retransmits",  "timeouts",         "fast_retransmits", "sack_retransmits",
    "tlp_probes",       "ooo_segments", "corrupt_accepted", "established",
};

struct Script {
  std::string name;  // from the `scenario` directive
  std::string path;  // source file, "" when parsed from memory

  uint64_t seed = scenario_defaults::kSeed;
  std::vector<FreqKhz> freqs;  // empty -> {scenario_defaults::kStackFreq}
  FreqKhz app_freq = scenario_defaults::kAppFreq;

  SimTime warmup = scenario_defaults::kWarmup;
  SimTime run_for = scenario_defaults::kRunFor;
  // Progress baseline: delivery counter snapshot at this absolute time; 0 =
  // no snapshot (progress then means "delivered anything, never stalled").
  SimTime measure_at = 0;
  SimTime recovery_bound = scenario_defaults::kRecoveryBound;

  uint64_t burst_bytes = scenario_defaults::kBurstBytes;
  int connections = scenario_defaults::kConnections;

  Topology topology = Topology::kP2p;
  int incast_clients = scenario_defaults::kIncastClients;
  int lanes = scenario_defaults::kIncastLanes;

  // TCP knobs; unset = the stack's defaults.
  std::optional<bool> tcp_sack;
  std::optional<bool> tcp_tlp;
  std::optional<SimTime> tcp_rto_min;

  bool watchdog = false;
  WatchdogServer::Params watchdog_params;
  bool checkpoint = false;
  bool trace = false;

  LinkPlan link;

  // Compiled fault directives, in script order. Channel/wire faults carry
  // their active window in FaultSpec::{from,until}; server faults their
  // trigger time in FaultSpec::at.
  std::vector<FaultSpec> injects;
  std::vector<FreqStep> freq_steps;
  std::vector<ExpectCheck> expects;
};

}  // namespace newtos::scenario

#endif  // SRC_SCENARIO_SCRIPT_H_

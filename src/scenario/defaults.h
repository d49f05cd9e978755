// The single table of fallback values the scenario compiler applies when a
// script omits a directive. Every duration that can influence a run lives
// HERE or in the script — nowhere else in src/scenario. The scenario-literals
// lint rule enforces that: a raw `N * kMillisecond` in the parser or runner
// is a buried magic timing an .nsc author can neither see nor override, so
// the rule bans time-constant arithmetic throughout src/scenario and this
// file carries the one reviewed waiver (tools/lint/lint.toml).
//
// The tab7 scripts spell out their timings and fault parameters, so a change
// here moves the resilience matrix (tests/golden/tab7_fault_campaign.csv)
// only through a value those scripts leave out.

#ifndef SRC_SCENARIO_DEFAULTS_H_
#define SRC_SCENARIO_DEFAULTS_H_

#include <cstdint>

#include "src/sim/time.h"

namespace newtos::scenario_defaults {

inline constexpr uint64_t kSeed = 1;

inline constexpr SimTime kWarmup = 30 * kMillisecond;
inline constexpr SimTime kRunFor = 250 * kMillisecond;
inline constexpr SimTime kRecoveryBound = 100 * kMillisecond;

// Channel-delay faults hold a message back this long unless the inject
// directive says otherwise.
inline constexpr SimTime kChanDelay = 200 * kMicrosecond;

// Progress invariant: sampling cadence of the delivery counter, and the
// margin added above recovery_bound (+ watchdog detection deadline when a
// watchdog is armed) before a flat counter counts as a stall.
inline constexpr SimTime kProgressInterval = 5 * kMillisecond;
inline constexpr SimTime kStallMargin = 20 * kMillisecond;

inline constexpr uint64_t kBurstBytes = 256 * 1024;
inline constexpr int kConnections = 1;

inline constexpr FreqKhz kStackFreq = 3'600'000 * kKhz;
inline constexpr FreqKhz kAppFreq = 3'600'000 * kKhz;

inline constexpr uint64_t kLinkLossSeed = 42;
inline constexpr int64_t kLivelockSlice = 200'000;  // Cycles

inline constexpr int kIncastClients = 16;
inline constexpr int kIncastLanes = 1;

// Trace ring for `trace on` runs (samplers stay off: a traced scenario must
// replay digest-identically to an untraced one).
inline constexpr uint64_t kTraceRingCapacity = uint64_t{1} << 20;

}  // namespace newtos::scenario_defaults

#endif  // SRC_SCENARIO_DEFAULTS_H_

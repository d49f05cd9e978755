// DES reference run of the fig2 bulk-TCP workload, bounded to an exact
// transfer size — the oracle the live backend's byte stream is checked
// against.
//
// The equivalence contract (DESIGN.md §10): both backends deliver the same
// application byte stream — same total, same in-order chunk sequence, hence
// the same StreamIntegrityChecker digest. Counters, timings, and power
// differ by construction (one is a model, the other is wall-clock reality);
// bytes may not. The DES side here is the unmodified simulator: a Testbed,
// one TCP connection, the application submitting the whole transfer in a
// single Send(), and the peer's on_data hook folding every delivered chunk
// into the digest. Loss-free, in-order delivery makes the chunk sequence a
// pure function of (transfer_bytes, mss) — the result carries the
// retransmit count as a tripwire so a lossy run can never masquerade as a
// reference.

#ifndef SRC_RUNTIME_FIG2_REF_H_
#define SRC_RUNTIME_FIG2_REF_H_

#include <cstdint>

namespace newtos {

struct Fig2DesResult {
  uint64_t delivered = 0;        // application bytes the peer accepted
  uint64_t chunks = 0;           // on_data invocations (delivered segments)
  uint64_t digest = 0;           // StreamIntegrityChecker FNV-1a fold
  uint64_t retransmits = 0;      // must be 0 for a valid reference
  bool completed = false;        // delivered == transfer_bytes in time
  double sim_seconds = 0.0;      // simulated time the transfer took
  uint64_t sim_events = 0;       // DES events processed
};

// Runs the bounded fig2 workload (SUT app -> peer over one TCP connection)
// in the simulator and returns the delivered-stream fingerprint.
Fig2DesResult RunFig2Des(uint64_t transfer_bytes);

}  // namespace newtos

#endif  // SRC_RUNTIME_FIG2_REF_H_

// WatchdogServer: heartbeat-based liveness monitoring for stack servers.
//
// The explicit crash path (MicrorebootManager::InjectCrash) models faults the
// resurrection infrastructure *sees* — a dead process. A hung or livelocked
// server produces no such signal: it simply stops answering. The watchdog
// closes that gap the way NewtOS's keepalive did: every heartbeat_interval it
// pushes a kCtlHeartbeat probe into a dedicated "wd" input ring of each
// watched server; the Server base class answers probes at a fixed small cost,
// bypassing the subclass handler, so an answer means "the poll loop is alive"
// regardless of protocol state. When a server stays silent past
// miss_threshold intervals, the watchdog escalates to the
// MicrorebootManager, which kills (if needed) and reboots it.
//
// Detection latency is ~interval * miss_threshold and does not depend on core
// frequency — only the reboot itself runs on the (possibly slow) server core.
// That split is why recovery stays bounded even at the lowest stack
// frequencies the paper sweeps: slowing the stack 3x barely moves time-to-
// detect, and only stretches the reboot tail.
//
// The watchdog is itself a Server pinned to a core (kWatchdogCore by
// convention — the app core, since probe traffic is tiny), so its probes and
// ack processing cost cycles like everything else.

#ifndef SRC_FAULT_WATCHDOG_H_
#define SRC_FAULT_WATCHDOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/os/microreboot.h"
#include "src/os/server.h"

namespace newtos {

// Core the fault tooling pins a WatchdogServer to. Placement only — the stack
// itself never builds a watchdog. It shares the app core: heartbeat traffic
// is tiny and must not steal cycles from the stack stages whose liveness it
// measures.
inline constexpr int kWatchdogCore = 0;

class WatchdogServer : public Server {
 public:
  struct Params {
    SimTime heartbeat_interval = 1 * kMillisecond;
    // Silence longer than interval * miss_threshold is a detection. Must
    // comfortably exceed the longest legitimate probe->ack round trip
    // (queueing behind a burst + channel visibility latencies).
    int miss_threshold = 3;
    Cycles tick_cost = 300;       // per-tick bookkeeping on the watchdog core
    Cycles probe_cost = 120;      // per-probe emission
    Cycles ack_cost = 100;        // per-ack processing (the CostFor charge)
    size_t chan_capacity = 64;
    ChannelCostModel chan_cost;
  };

  struct Detection {
    std::string server;
    SimTime last_ack = 0;     // the server's last sign of life
    SimTime detected_at = 0;
    size_t incident = 0;      // index into MicrorebootManager::incidents()
  };

  WatchdogServer(Simulation* sim, MicrorebootManager* mgr, const Params& params);

  // Registers `server` for monitoring: creates its "wd" probe ring and wires
  // its heartbeat acks back here. `restart_cycles` is the reboot cost handed
  // to the MicrorebootManager on escalation. Call before Start().
  void Watch(Server* server, Cycles restart_cycles);

  // Begins the probe/scan loop. Requires BindCore() first.
  void Start();

  const Params& params() const { return params_; }
  const std::vector<Detection>& detections() const { return detections_; }
  uint64_t probes_sent() const { return probes_sent_; }
  uint64_t acks_received() const { return acks_received_; }

  // Worst-case detection latency the configuration promises.
  SimTime DetectionDeadline() const {
    return params_.heartbeat_interval * params_.miss_threshold;
  }

 protected:
  Cycles CostFor(const Msg& msg) override;
  void Handle(const Msg& msg) override;

 private:
  void Tick();
  void EmitProbes();
  // True while a watched server other than `self` placed on `core` is
  // mid-reboot (its restart cycles monopolize the core, starving co-located
  // servers — their silence must not cascade into spurious microreboots).
  bool AnotherServerRebootingOn(const Core* core, const Server* self) const;

  MicrorebootManager* mgr_;
  Params params_;
  Chan* acks_ = nullptr;

  struct Watched {
    Server* server = nullptr;
    Chan* ctl = nullptr;         // the probe ring we push into
    Cycles restart_cycles = 0;
    SimTime last_ack = 0;
    bool recovering = false;     // escalated; cleared by the next ack
  };
  std::vector<Watched> watched_;

  uint64_t seq_ = 0;
  uint64_t probes_sent_ = 0;
  uint64_t acks_received_ = 0;
  bool started_ = false;
  std::vector<Detection> detections_;
};

}  // namespace newtos

#endif  // SRC_FAULT_WATCHDOG_H_

#include "src/fault/watchdog.h"

#include <cassert>

#include "src/sim/logger.h"

namespace newtos {

WatchdogServer::WatchdogServer(Simulation* sim, MicrorebootManager* mgr, const Params& params)
    : Server(sim, "watchdog"), mgr_(mgr), params_(params) {
  assert(params_.heartbeat_interval > 0);
  assert(params_.miss_threshold >= 1);
  acks_ = CreateInput("acks", params_.chan_capacity, params_.chan_cost);
}

void WatchdogServer::Watch(Server* server, Cycles restart_cycles) {
  assert(!started_ && "register watched servers before Start()");
  Watched w;
  w.server = server;
  w.ctl = server->CreateInput("wd", params_.chan_capacity, params_.chan_cost);
  w.restart_cycles = restart_cycles;
  server->EnableHeartbeat(acks_, watched_.size());
  watched_.push_back(w);
}

void WatchdogServer::Start() {
  assert(core() != nullptr && "bind the watchdog to a core before Start()");
  started_ = true;
  const SimTime now = sim()->Now();
  for (Watched& w : watched_) {
    w.last_ack = now;  // everyone gets a full deadline before first suspicion
  }
  sim()->Schedule(params_.heartbeat_interval, [this] { Tick(); });
}

void WatchdogServer::Tick() {
  sim()->Schedule(params_.heartbeat_interval, [this] { Tick(); });

  // Scan for silence. A server past its deadline is escalated exactly once;
  // the `recovering` latch opens again on its first post-reboot ack.
  const SimTime deadline = DetectionDeadline();
  const SimTime now = sim()->Now();
  for (Watched& w : watched_) {
    if (w.recovering || now - w.last_ack <= deadline) {
      continue;
    }
    if (AnotherServerRebootingOn(w.server->core(), w.server)) {
      // A reboot monopolizes its core, so co-located servers cannot answer
      // probes however healthy they are. Pause their silence clocks instead
      // of cascading spurious microreboots.
      w.last_ack = now;
      continue;
    }
    w.recovering = true;
    NEWTOS_LOG(kInfo, now, name(),
               w.server->name() << " silent for "
                                << (now - w.last_ack) / kMicrosecond << "us -> microreboot");
    const size_t incident = mgr_->RecoverDetected(w.server, w.last_ack, w.restart_cycles);
    detections_.push_back(Detection{w.server->name(), w.last_ack, now, incident});
  }

  // Emitting the probe round costs watchdog-core cycles like any other work.
  const Cycles cost =
      params_.tick_cost + params_.probe_cost * static_cast<Cycles>(watched_.size());
  core()->Execute(cost, [this] { EmitProbes(); });
}

bool WatchdogServer::AnotherServerRebootingOn(const Core* core, const Server* self) const {
  for (const Watched& other : watched_) {
    if (other.server != self && other.server->crashed() && other.server->core() == core) {
      return true;
    }
  }
  return false;
}

void WatchdogServer::EmitProbes() {
  // This runs from a core Execute() callback, outside the base class's burst
  // path — scope the identity by hand or every probe pushes anonymously and
  // the wd rings never see their producer.
  ChannelChecker::ScopedActor check_scope(check(), check_actor());
  ++seq_;
  for (const Watched& w : watched_) {
    Msg probe;
    probe.type = MsgType::kCtlHeartbeat;
    probe.value = seq_;
    if (Emit(w.ctl, std::move(probe))) {
      ++probes_sent_;
    }
    // A full "wd" ring is itself a silence symptom (the server is not
    // draining) — the scan above catches it; nothing more to do here.
  }
}

Cycles WatchdogServer::CostFor(const Msg&) { return params_.ack_cost; }

void WatchdogServer::Handle(const Msg& msg) {
  if (msg.type != MsgType::kCtlHeartbeat) {
    return;
  }
  const size_t index = static_cast<size_t>(msg.handle);
  if (index >= watched_.size()) {
    return;
  }
  ++acks_received_;
  Watched& w = watched_[index];
  w.last_ack = sim()->Now();
  if (w.recovering) {
    w.recovering = false;  // back from the dead; resume normal suspicion
    NEWTOS_LOG(kInfo, sim()->Now(), name(), w.server->name() << " answering again");
  }
}

}  // namespace newtos

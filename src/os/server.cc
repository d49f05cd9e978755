#include "src/os/server.h"

#include <cassert>
#include <utility>

#include "src/sim/logger.h"

namespace newtos {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kPacketRx:
      return "PacketRx";
    case MsgType::kPacketTx:
      return "PacketTx";
    case MsgType::kSockConnect:
      return "SockConnect";
    case MsgType::kSockListen:
      return "SockListen";
    case MsgType::kSockSend:
      return "SockSend";
    case MsgType::kSockClose:
      return "SockClose";
    case MsgType::kSockRead:
      return "SockRead";
    case MsgType::kEvtEstablished:
      return "EvtEstablished";
    case MsgType::kEvtAccepted:
      return "EvtAccepted";
    case MsgType::kEvtData:
      return "EvtData";
    case MsgType::kEvtDrained:
      return "EvtDrained";
    case MsgType::kEvtClosed:
      return "EvtClosed";
    case MsgType::kCtlCrash:
      return "CtlCrash";
    case MsgType::kCtlRestart:
      return "CtlRestart";
    case MsgType::kCtlHeartbeat:
      return "CtlHeartbeat";
  }
  return "?";
}

Server::Server(Simulation* sim, std::string name) : sim_(sim), name_(std::move(name)) {}

void Server::BindCore(Core* core) { core_ = core; }

Server::Chan* Server::CreateInput(const std::string& chan_name, size_t capacity,
                                  const ChannelCostModel& cost) {
  owned_inputs_.push_back(
      std::make_unique<Chan>(sim_, name_ + "/" + chan_name, capacity, cost));
  Chan* ch = owned_inputs_.back().get();
  ch->SetNotify([this] { MaybeSchedule(); });
  AddWorkSource(WorkSource{
      .has_work = [ch] { return !ch->empty(); },
      .take = [ch] { return *ch->Pop(); },
      .overhead_cycles = cost.dequeue_cycles,
  });
  return ch;
}

std::vector<Server::Chan*> Server::Inputs() const {
  std::vector<Chan*> out;
  out.reserve(owned_inputs_.size());
  for (const auto& ch : owned_inputs_) {
    out.push_back(ch.get());
  }
  return out;
}

void Server::AddWorkSource(WorkSource source) { sources_.push_back(std::move(source)); }

Server::WorkSource* Server::PickSource() {
  const size_t n = sources_.size();
  size_t idx = rr_next_;
  for (size_t i = 0; i < n; ++i) {
    WorkSource& s = sources_[idx];
    if (++idx == n) {
      idx = 0;
    }
    if (s.has_work()) {
      rr_next_ = idx;
      return &s;
    }
  }
  return nullptr;
}

bool Server::Idle() const {
  if (processing_) {
    return false;
  }
  for (const WorkSource& s : sources_) {
    if (s.has_work()) {
      return false;
    }
  }
  return true;
}

void Server::NotifyIdleChange(bool idle) {
  if (idle != last_reported_idle_) {
    last_reported_idle_ = idle;
    if (idle_observer_) {
      idle_observer_(idle);
    }
  }
}

void Server::EnableCheck(ChannelChecker* check, uint32_t actor) {
  check_ = check;
  check_actor_ = actor;
  for (auto& ch : owned_inputs_) {
    ch->EnableCheck(check);
    // Ownership of an input IS the consumer role: bind it at wiring time so
    // even rings that never see traffic carry their consumer in the export.
    check->BindConsumer(ch.get(), actor);
  }
}

void Server::MaybeSchedule() {
  if (processing_ || crashed_ || hung_) {
    return;
  }
  assert(core_ != nullptr && "server must be bound to a core before traffic flows");
  // The burst drain below Pops this server's own inputs: that is this
  // server's consumer identity as far as the protocol checker is concerned.
  ChannelChecker::ScopedActor check_scope(check_, check_actor_);
  WorkSource* src = PickSource();
  if (src == nullptr) {
    NotifyIdleChange(true);  // not processing, and PickSource found every source empty
    return;
  }
  processing_ = true;
  NotifyIdleChange(false);
  // Drain a burst from the chosen source into one core work item: the cycle
  // costs add up per message, but tenant-switch pollution is paid once per
  // burst — exactly how batched poll loops amortize co-location.
  assert(batch_.empty());
  const bool tracing = TraceOn(trace_.rec);
  Cycles cost = 0;
  for (int n = 0; n < source_batch_limit_ && src->has_work(); ++n) {
    Msg msg = src->take();
    // Heartbeat probes bypass the subclass: answered at a fixed base-class
    // cost. (The watchdog itself has no heartbeat_out_ — the acks it receives
    // are ordinary messages to it.)
    const bool probe = msg.type == MsgType::kCtlHeartbeat && heartbeat_out_ != nullptr;
    const Cycles msg_cost = src->overhead_cycles + (probe ? kHeartbeatAckCycles : CostFor(msg));
    cost += msg_cost;
    if (tracing) {
      batch_durs_.push_back(TraceCyclesToTime(msg_cost));
    }
    batch_.push_back(std::move(msg));
  }
  if (core_->SetTenant(this)) {
    cost += tenant_switch_cycles_;
    core_->CountTenantSwitch();
  }
  if (tracing) {
    batch_total_dur_ = TraceCyclesToTime(cost);
  }
  const uint64_t gen = generation_;
  core_->Execute(cost, [this, gen]() {
    if (gen != generation_) {
      return;  // the server crashed (and possibly restarted) mid-flight
    }
    // Handle() pushes into downstream rings: the producer identity of every
    // Emit in this burst is this server.
    ChannelChecker::ScopedActor emit_scope(check_, check_actor_);
    // Swap into the scratch buffer before handling: a crash inside Handle()
    // clears batch_ but must not disturb the burst being iterated.
    executing_.swap(batch_);
    executing_durs_.swap(batch_durs_);
    if (TraceOn(trace_.rec) && trace_.msg_names != nullptr &&
        executing_durs_.size() == executing_.size() && !executing_.empty()) {
      RecordBurstSpans();
    }
    executing_durs_.clear();
    for (const Msg& msg : executing_) {
      ++messages_processed_;
      if (msg.type == MsgType::kCtlHeartbeat && heartbeat_out_ != nullptr) {
        AckHeartbeat(msg);
      } else {
        Handle(msg);
      }
    }
    executing_.clear();
    processing_ = false;
    MaybeSchedule();
  });
}

void Server::RecordBurstSpans() {
  // Reconstruct the burst interval from the durations captured at submit:
  // the work item finished *now*, so it started one burst-duration ago. The
  // per-message spans occupy the tail of the interval; the lead-in (tenant
  // switch and rounding slack) is the burst span's own time. All spans are
  // complete events (duration known here), parent first then children in
  // begin order — half the records of begin/end pairs.
  const SimTime end = sim_->Now();
  SimTime msgs_total = 0;
  for (const SimTime d : executing_durs_) {
    msgs_total += d;
  }
  const SimTime begin = end - (batch_total_dur_ > msgs_total ? batch_total_dur_ : msgs_total);
  trace_.rec->Complete(begin, trace_.track, trace_.burst, end - begin);
  SimTime cursor = end - msgs_total;
  for (size_t i = 0; i < executing_.size(); ++i) {
    const NameId name = trace_.msg_names[static_cast<size_t>(executing_[i].type)];
    const uint64_t flow = TraceIdsOf(executing_[i]).flow;
    trace_.rec->Complete(cursor, trace_.track, name, executing_durs_[i], flow);
    cursor += executing_durs_[i];
  }
}

void Server::EnableHeartbeat(Chan* ack_out, uint64_t id) {
  heartbeat_out_ = ack_out;
  heartbeat_id_ = id;
}

void Server::AckHeartbeat(const Msg& probe) {
  if (heartbeat_out_ == nullptr) {
    return;  // probe arrived before the watchdog wired the ack path
  }
  Msg ack;
  ack.type = MsgType::kCtlHeartbeat;
  ack.handle = heartbeat_id_;
  ack.value = probe.value;  // echo the sequence number
  ++heartbeats_acked_;
  Emit(heartbeat_out_, std::move(ack));
}

void Server::Hang() {
  if (crashed_ || hung_) {
    return;
  }
  NEWTOS_LOG(kInfo, sim_->Now(), name_, "HANG injected (gen " << generation_ << ")");
  hung_ = true;
}

void Server::Livelock(Cycles busy_cycles) {
  if (crashed_) {
    return;
  }
  const bool was_hung = hung_;
  Hang();
  if (was_hung) {
    return;  // already spinning or silently hung; don't stack spin loops
  }
  NEWTOS_LOG(kInfo, sim_->Now(), name_, "LIVELOCK: spinning " << busy_cycles << " cycles/slice");
  livelock_slice_ = busy_cycles > 0 ? busy_cycles : 1;
  LivelockSpin(generation_);
}

void Server::LivelockSpin(uint64_t gen) {
  if (gen != generation_ || !hung_) {
    return;  // crashed (the cure) — the spin dies with the address space
  }
  assert(core_ != nullptr);
  core_->Execute(livelock_slice_, [this, gen] { LivelockSpin(gen); });
}

void Server::Crash() {
  if (crashed_) {
    return;
  }
  NEWTOS_LOG(kInfo, sim_->Now(), name_, "CRASH injected (gen " << generation_ << ")");
  crashed_ = true;
  hung_ = false;  // the kill cures a hang/livelock; the restart resumes clean
  ++generation_;  // invalidates the in-flight completion, if any
  processing_ = false;
  // The burst waiting on the core dies with the address space. It was never
  // counted as processed, and (matching the old capture-by-value behaviour)
  // it is not counted as lost_to_crash either — only queued input is.
  batch_.clear();
  batch_durs_.clear();
  if (TraceOn(trace_.rec)) {
    trace_.rec->Instant(sim_->Now(), trace_.track, trace_.crash);
  }
  // Draining dead inputs to the floor is still this server consuming them.
  ChannelChecker::ScopedActor check_scope(check_, check_actor_);
  for (auto& ch : owned_inputs_) {
    while (auto m = ch->Pop()) {
      ++messages_lost_to_crash_;
    }
  }
  OnCrash();
  NotifyIdleChange(Idle());
}

void Server::Restart(Cycles restart_cycles, std::function<void()> on_ready) {
  if (!crashed_) {
    return;
  }
  assert(core_ != nullptr);
  const uint64_t gen = generation_;
  core_->Execute(restart_cycles, [this, gen, on_ready = std::move(on_ready)] {
    if (gen != generation_) {
      return;  // crashed again while rebooting
    }
    crashed_ = false;
    OnRestart();
    if (TraceOn(trace_.rec)) {
      trace_.rec->Instant(sim_->Now(), trace_.track, trace_.restart);
    }
    NEWTOS_LOG(kInfo, sim_->Now(), name_, "restarted (gen " << generation_ << ")");
    if (on_ready) {
      on_ready();
    }
    MaybeSchedule();
  });
}

}  // namespace newtos

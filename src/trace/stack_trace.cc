#include "src/trace/stack_trace.h"

#include "src/trace/chrome_trace.h"
#include "src/trace/folded_stack.h"

namespace newtos {
namespace {

// Display ranks: recovery on top, then the NICs, the pipeline stages in
// wiring order, and the hardware rows at the bottom.
constexpr int kRecoveryRank = 0;
constexpr int kNicRank = 10;
constexpr int kCoreRank = 1000;
constexpr int kSimRank = 2000;

// Period of the counter samplers.
constexpr SimTime kSampleInterval = 100 * kMicrosecond;

}  // namespace

StackTracer::StackTracer(Simulation* sim, MultiserverStack* stack)
    : StackTracer(sim, stack, Options{}) {}

StackTracer::StackTracer(Simulation* sim, MultiserverStack* stack, const Options& options)
    : sim_(sim), options_(options), rec_(options.ring_capacity), samplers_(sim, &rec_) {
  for (size_t i = 0; i < kNumMsgTypes; ++i) {
    msg_names_[i] = rec_.InternName(MsgTypeName(static_cast<MsgType>(i)));
  }
  burst_ = rec_.InternName("burst");
  crash_ = rec_.InternName("crash");
  restart_ = rec_.InternName("restarted");
  hop_ = rec_.InternName("in-flight");
  depth_ = rec_.InternName("depth");
  util_ = rec_.InternName("util_pct");
  recovery_track_ = rec_.RegisterTrack("recovery", kRecoveryRank);

  // Event-queue depth: the one probe that watches the engine itself.
  const TrackId sim_track = rec_.RegisterTrack("sim", kSimRank);
  samplers_.Add(sim_track, rec_.InternName("pending_events"),
                [sim] { return static_cast<int64_t>(sim->PendingEvents()); });

  if (stack != nullptr) {
    AddNic(stack->machine()->nic());
    for (Server* s : stack->SystemServers()) {
      WireServer(s, next_server_rank_++);
    }
    for (AppProcess* app : stack->Apps()) {
      WireServer(app, next_server_rank_++);
    }
    Machine* m = stack->machine();
    for (int i = 0; i < m->num_cores(); ++i) {
      WireCore(m->core(i));
    }
  }
}

void StackTracer::WireCore(Core* core) {
  const TrackId track = rec_.RegisterTrack(core->name(), kCoreRank + core->id());
  CoreTraceHooks hooks;
  hooks.rec = &rec_;
  hooks.track = track;
  hooks.idle_poll = rec_.InternName("idle:poll");
  hooks.idle_halt = rec_.InternName("idle:halt");
  hooks.wake = rec_.InternName("wake");
  hooks.freq = rec_.InternName("freq_khz");
  core->EnableTrace(hooks);
  // Utilization: percent of the sample interval the core spent busy, from
  // the busy-time delta between ticks. A mid-run stats reset (WarmUp) makes
  // one delta negative; clamp it rather than report nonsense.
  samplers_.Add(track, util_, [core, prev = SimTime{0}]() mutable {
    const SimTime busy = core->busy_time();
    SimTime delta = busy - prev;
    prev = busy;
    if (delta < 0) {
      delta = 0;
    } else if (delta > kSampleInterval) {
      delta = kSampleInterval;  // queued-ahead work accrues at submit; cap at 100%
    }
    return delta * 100 / kSampleInterval;
  });
}

void StackTracer::WireServer(Server* server, int sort_rank) {
  const TrackId track = rec_.RegisterTrack(server->name(), sort_rank);
  ServerTraceHooks hooks;
  hooks.rec = &rec_;
  hooks.track = track;
  hooks.burst = burst_;
  hooks.crash = crash_;
  hooks.restart = restart_;
  hooks.msg_names = msg_names_.data();
  server->EnableTrace(hooks);
  for (Server::Chan* ch : server->Inputs()) {
    const TrackId ch_track = rec_.RegisterTrack(ch->name(), sort_rank);
    ch->EnableTrace(&rec_, ch_track, hop_);
    samplers_.Add(ch_track, depth_, [ch] { return static_cast<int64_t>(ch->size()); });
  }
}

void StackTracer::AddServer(Server* server) { WireServer(server, next_server_rank_++); }

void StackTracer::AddNic(Nic* nic) {
  const TrackId track = rec_.RegisterTrack("nic:" + nic->name(), kNicRank);
  NicTraceHooks hooks;
  hooks.rec = &rec_;
  hooks.track = track;
  hooks.tx = rec_.InternName("tx");
  hooks.rx = rec_.InternName("rx");
  hooks.rx_drop = rec_.InternName("rx_ring_drop");
  hooks.loss = rec_.InternName("wire_loss");
  nic->EnableTrace(hooks);
  samplers_.Add(track, rec_.InternName("rx_pending"),
                [nic] { return static_cast<int64_t>(nic->rx_pending()); });
  samplers_.Add(track, rec_.InternName("tx_queued"),
                [nic] { return static_cast<int64_t>(nic->tx_queued()); });
}

void StackTracer::AddMicroreboot(MicrorebootManager* mgr) {
  mgr->EnableTrace(&rec_, recovery_track_);
}

void StackTracer::Enable() {
  rec_.set_enabled(true);
  if (options_.samplers) {
    samplers_.Start(kSampleInterval);
  }
}

void StackTracer::Disable() {
  samplers_.Stop();
  rec_.set_enabled(false);
}

bool StackTracer::ExportChromeTrace(const std::string& path) const {
  return WriteChromeTraceFile(rec_, path);
}

bool StackTracer::ExportFolded(const std::string& path) const {
  return FoldedStacks(rec_).WriteFoldedFile(path);
}

}  // namespace newtos

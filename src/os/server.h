// Server: base class for multiserver OS components pinned to cores.
//
// A server is a message-driven state machine. It draws messages from its
// *work sources* (input channels, or custom sources like a NIC RX ring),
// charges the per-message cycle cost to the core it is pinned on, and then
// performs the semantic action (Handle), which typically pushes messages
// into downstream channels. Sources are drained round-robin, one message at
// a time, exactly like the poll loop of a NewtOS server.
//
// Cost accounting convention: CostFor() returns the full cycle count for a
// message — dequeue from the input ring, protocol work, and the enqueue(s)
// of any output the handler will produce. Folding the enqueue into the same
// work item keeps the event count at ~2 events per message per stage.
//
// Crash model: Crash() bumps the server's generation, empties its inputs
// (in-flight messages are lost — they lived in the dead address space) and
// invokes OnCrash() so subclasses lose whatever state the paper's recovery
// story says they lose. Restart() charges the reboot cost to the core and
// then calls OnRestart(). The MicrorebootManager drives both.

#ifndef SRC_OS_SERVER_H_
#define SRC_OS_SERVER_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/chan/sim_channel.h"
#include "src/hw/cpu.h"
#include "src/os/message.h"
#include "src/sim/ring_deque.h"
#include "src/sim/simulation.h"
#include "src/trace/recorder.h"

namespace newtos {

class Nic;

// Tracing hooks for one server (wired by StackTracer, src/trace/stack_trace.h).
// All ids are interned at setup; the per-burst recording path is
// allocation-free. `msg_names` must point at kNumMsgTypes entries indexed by
// MsgType and outlive the server.
struct ServerTraceHooks {
  TraceRecorder* rec = nullptr;
  TrackId track = 0;
  NameId burst = 0;    // outer span: one poll-loop burst on the core
  NameId crash = 0;    // instant: the server died
  NameId restart = 0;  // instant: recovery completed, processing resumes
  const NameId* msg_names = nullptr;
};

// WorkFn<R>: the pointer-sized callable behind a work source. The poll loop
// asks every source `has_work` on each pick and on each idle check, so the
// call is one plain function pointer over an inline capture: no heap, no
// manager, and copying it is copying 24 bytes.
//
// The capture must be trivially copyable and at most kCapacity (16) bytes.
// Every source captures `this` or one `Chan*`; a capture that breaks either
// rule fails to compile (the static_assert below, exercised by the
// WorkFn.*FailsToCompile ctests) rather than falling back to something slower.
template <typename R>
class WorkFn {
 public:
  static constexpr size_t kCapacity = 16;

  // True for captures WorkFn accepts.
  template <typename D>
  static constexpr bool kFits = sizeof(D) <= kCapacity && alignof(D) <= alignof(void*) &&
                                std::is_trivially_copyable_v<D>;

  WorkFn() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, WorkFn> &&
                                        std::is_invocable_r_v<R, const D&>>>
  WorkFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    static_assert(kFits<D>,
                  "work-source capture must be trivially copyable and at most 16 bytes: "
                  "capture `this` or a channel pointer, not values");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
    call_ = [](const void* b) -> R { return (*std::launder(reinterpret_cast<const D*>(b)))(); };
  }

  R operator()() const { return call_(buf_); }

 private:
  alignas(void*) unsigned char buf_[kCapacity] = {};
  R (*call_)(const void*) = nullptr;
};

class Server {
 public:
  using Chan = SimChannel<Msg>;

  Server(Simulation* sim, std::string name);
  virtual ~Server() = default;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& name() const { return name_; }
  Simulation* sim() const { return sim_; }

  // Pins the server to a core. Must be called before traffic flows; may be
  // called again (re-steering) between experiments when the pipeline is idle.
  void BindCore(Core* core);
  Core* core() const { return core_; }

  // Creates an input channel owned by this server; its notify hook schedules
  // processing. Other components hold the returned pointer to push into it.
  Chan* CreateInput(const std::string& chan_name, size_t capacity,
                    const ChannelCostModel& cost = {});

  // Every input channel this server owns (for fault taps and introspection).
  std::vector<Chan*> Inputs() const;

  // Registers a custom work source (e.g. the NIC RX ring).
  struct WorkSource {
    WorkFn<bool> has_work;
    WorkFn<Msg> take;                   // precondition: has_work()
    Cycles overhead_cycles = 0;         // dequeue-equivalent cost of taking one item
  };
  void AddWorkSource(WorkSource source);

  // Registers one of the server's own FIFOs as a work source with no dequeue
  // overhead: each take pops the front. A queue of packets yields kPacketTx
  // messages (segments the server's protocol state generated).
  template <typename T>
  void AddQueueSource(RingDeque<T>* queue) {
    AddWorkSource(WorkSource{
        .has_work = [queue] { return !queue->empty(); },
        .take = [queue] { return PopFront(queue); },
        .overhead_cycles = 0,
    });
  }

  // Registers the NIC's RX ring as a work source (kPacketRx) and points the
  // NIC's RX notify at this server's poll loop.
  void AddNicRxSource(Nic* nic);

  // Kicks the poll loop; cheap and idempotent. Called by channel notifies.
  void MaybeSchedule();

  // --- Fault injection / recovery ---

  // Kills the server: inputs are drained to the floor, in-flight work is
  // invalidated, OnCrash() runs. The server stays dead until Restart().
  void Crash();

  // Reboots: charges `restart_cycles` to the core, then OnRestart() runs and
  // processing resumes. No-op if not crashed.
  void Restart(Cycles restart_cycles, std::function<void()> on_ready = nullptr);

  // Hangs the server: the poll loop stops draining sources (messages pile
  // up, heartbeats go unanswered) but the process is not dead — no crash is
  // observable, which is exactly the fault a keepalive watchdog exists to
  // catch. A burst already on the core completes. Cured by Crash()+Restart()
  // (the watchdog's escalation path).
  void Hang();

  // Livelock: hangs as above, but additionally keeps the core busy in
  // `busy_cycles` slices forever — the server spins without progress,
  // starving co-located tenants. The spin dies with the next Crash().
  void Livelock(Cycles busy_cycles);

  bool crashed() const { return crashed_; }
  bool hung() const { return hung_; }
  uint64_t generation() const { return generation_; }

  // Watchdog wiring (src/fault/watchdog.h): once enabled, the server answers
  // every kCtlHeartbeat on its inputs by echoing the sequence number into
  // `ack_out` tagged with `id`, at a fixed small cycle cost. A hung, livelocked
  // or crashed server stops answering — that silence is the detection signal.
  void EnableHeartbeat(Chan* ack_out, uint64_t id);
  uint64_t heartbeats_acked() const { return heartbeats_acked_; }

  // --- Statistics ---
  uint64_t messages_processed() const { return messages_processed_; }
  uint64_t messages_lost_to_crash() const { return messages_lost_to_crash_; }

  // True if every source is empty and nothing is executing: the server's
  // poll loop is spinning dry. Poll policies use this.
  bool Idle() const;

  // Cold-cache penalty charged when this server runs on a core right after
  // a *different* server did (cache/TLB pollution from co-location). Zero
  // for servers that own their core outright.
  void set_tenant_switch_cycles(Cycles c) { tenant_switch_cycles_ = c; }
  Cycles tenant_switch_cycles() const { return tenant_switch_cycles_; }

  // Burst scheduling: the poll loop drains up to this many consecutive
  // messages from one source before rotating to the next (NAPI-style
  // batching — it amortizes tenant switches when servers share a core, at
  // a small cost in cross-source fairness). 1 = strict round-robin.
  void set_source_batch_limit(int limit) { source_batch_limit_ = limit > 0 ? limit : 1; }
  int source_batch_limit() const { return source_batch_limit_; }

  // Invoked on busy->idle and idle->busy transitions (for poll policies).
  void SetIdleObserver(std::function<void(bool idle)> fn) { idle_observer_ = std::move(fn); }

  // Wires tracing: bursts become spans on `hooks.track` with nested
  // per-message spans (named by MsgType, subdivided by each message's cycle
  // cost, carrying the packet's flow id), and crash/restart become instants
  // on the same track — so a microreboot is visible in the same timeline as
  // the traffic it interrupts.
  void EnableTrace(const ServerTraceHooks& hooks) { trace_ = hooks; }

  // Wires the channel-protocol checker (src/check): every input this server
  // owns registers with it, and all draining/handling runs under `actor`'s
  // identity so the checker can bind one producer and one consumer to each
  // ring. Call after construction, once the inputs exist.
  void EnableCheck(ChannelChecker* check, uint32_t actor);

 protected:
  // Cycle cost of fully processing `msg` (dequeue + work + output enqueues).
  virtual Cycles CostFor(const Msg& msg) = 0;

  // Semantic action; runs after the cost has been charged to the core.
  virtual void Handle(const Msg& msg) = 0;

  // State-loss hooks for the crash model.
  virtual void OnCrash() {}
  virtual void OnRestart() {}

  // Pushes into a downstream channel (the enqueue cost is part of CostFor).
  // Returns false if the channel was full (message dropped — downstream
  // protocols recover, exactly as with a full real ring).
  static bool Emit(Chan* out, Msg msg) { return out->Push(std::move(msg)); }

  // For subclasses that Emit from their own timer callbacks (outside the
  // burst path, where the base class cannot scope the identity for them) —
  // the watchdog's probe tick is the one case today.
  ChannelChecker* check() const { return check_; }
  uint32_t check_actor() const { return check_actor_; }

 private:
  static Msg PopFront(RingDeque<Msg>* queue) {
    Msg m = std::move(queue->front());
    queue->pop_front();
    return m;
  }
  static Msg PopFront(RingDeque<PacketPtr>* queue) {
    Msg m;
    m.type = MsgType::kPacketTx;
    m.packet = std::move(queue->front());
    queue->pop_front();
    return m;
  }

  // Reports `idle` (what Idle() returns now) to the observer if it changed.
  void NotifyIdleChange(bool idle);
  WorkSource* PickSource();
  void LivelockSpin(uint64_t gen);
  void AckHeartbeat(const Msg& probe);
  // Records the just-finished burst's spans (timestamps reconstructed from
  // the per-message durations captured at submit). Called before Handle()s
  // run so downstream channel events sort after the spans that caused them.
  void RecordBurstSpans();
  // Cycles -> picoseconds for trace span durations only: a cached fixed-point
  // multiply instead of CyclesToTime's two 64-bit divisions per message. At
  // most half a cycle of rounding error — invisible at display granularity,
  // and never fed back into the model.
  SimTime TraceCyclesToTime(Cycles c) {
    const FreqKhz f = core_->frequency();
    if (f != trace_freq_) {
      trace_freq_ = f;
      trace_ps_per_cycle_fp_ = ((int64_t{1'000'000'000} << 16) + f / 2) / f;
    }
    return (c * trace_ps_per_cycle_fp_) >> 16;
  }

  // Cycle cost of answering one heartbeat probe (bypasses CostFor: the ack
  // is base-class behaviour, cheaper than any protocol message).
  static constexpr Cycles kHeartbeatAckCycles = 150;

  Simulation* sim_;
  std::string name_;
  Core* core_ = nullptr;

  std::vector<std::unique_ptr<Chan>> owned_inputs_;
  std::vector<WorkSource> sources_;
  size_t rr_next_ = 0;
  int source_batch_limit_ = 16;

  Cycles tenant_switch_cycles_ = 250;
  // Burst buffers for MaybeSchedule: `batch_` is the burst waiting on the
  // core, `executing_` the one whose Handle() calls are running. Members
  // (not per-burst locals) so their capacity is reused forever — at most one
  // burst is in flight per server (guarded by processing_), and keeping them
  // out of the completion capture keeps that capture at two words.
  std::vector<Msg> batch_;
  std::vector<Msg> executing_;
  // Tracing mirrors of the burst buffers: per-message durations at the
  // submission-time operating point, swapped in lockstep with batch_/
  // executing_. Empty (and never touched) while tracing is off, so the
  // fast path stays allocation-free after the first traced burst.
  std::vector<SimTime> batch_durs_;
  std::vector<SimTime> executing_durs_;
  SimTime batch_total_dur_ = 0;
  FreqKhz trace_freq_ = 0;              // cache key for trace_ps_per_cycle_fp_
  int64_t trace_ps_per_cycle_fp_ = 0;   // ps per cycle, 16-bit fixed point
  ServerTraceHooks trace_;
  bool processing_ = false;
  bool crashed_ = false;
  bool hung_ = false;
  Cycles livelock_slice_ = 0;
  uint64_t generation_ = 0;
  uint64_t messages_processed_ = 0;
  uint64_t messages_lost_to_crash_ = 0;
  Chan* heartbeat_out_ = nullptr;
  uint64_t heartbeat_id_ = 0;
  uint64_t heartbeats_acked_ = 0;
  bool last_reported_idle_ = true;
  std::function<void(bool)> idle_observer_;
  ChannelChecker* check_ = nullptr;
  uint32_t check_actor_ = 0;
};

// Inbound L4 demux, shared by the IP server (no PF stage) and the PF server:
// a TCP segment goes to the shard its symmetric flow hash picks, anything
// else to UDP.
struct L4Demux {
  std::vector<Server::Chan*> tcp_shards;
  Server::Chan* udp = nullptr;

  Server::Chan* For(const Packet& p) const {
    if (p.ip.proto != IpProto::kTcp) {
      return udp;
    }
    assert(!tcp_shards.empty() && "L4 demux needs the TCP shards");
    return tcp_shards[SymmetricFlowHash(PacketFlowKey(p)) % tcp_shards.size()];
  }
};

}  // namespace newtos

#endif  // SRC_OS_SERVER_H_

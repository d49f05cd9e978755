// Simulated asynchronous channel between two pinned servers.
//
// This is the DES counterpart of SpscRing: a bounded FIFO whose *costs* are
// modeled instead of executed. The cycle costs of enqueueing, dequeueing and
// polling are carried in the CostModel and charged by the servers to their
// cores; the channel itself models capacity, occupancy, and the cache-line
// visibility latency between cores (a consumer learns of a message only
// after the line crosses the interconnect).
//
// Fault taps: an optional tap (src/fault/fault_injector.h installs them)
// observes every Push and may drop the message in transit, duplicate it,
// delay its delivery, or mutate it in place (corruption). The tap models the
// shared-memory ring misbehaving — a torn write, a stale head index, a
// producer bug — which is exactly the fault surface a multiserver OS must
// survive. With no tap installed, Push is the original fast path.

#ifndef SRC_CHAN_SIM_CHANNEL_H_
#define SRC_CHAN_SIM_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "src/check/channel_checker.h"
#include "src/sim/ring_deque.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/trace/recorder.h"

namespace newtos {

struct ChannelCostModel {
  Cycles enqueue_cycles = 120;      // producer: slot write + head publish
  Cycles dequeue_cycles = 100;      // consumer: slot read + tail publish
  Cycles poll_empty_cycles = 40;    // consumer: checking an empty ring
  SimTime visibility_latency = 80 * kNanosecond;  // cross-core cache-line transfer
};

struct ChannelStats {
  uint64_t pushes = 0;
  uint64_t pops = 0;
  uint64_t full_drops = 0;
  size_t max_depth = 0;
  // Fault-tap outcomes (all zero unless an injector tap is installed).
  uint64_t injected_drops = 0;
  uint64_t injected_dups = 0;
  uint64_t injected_delays = 0;
};

// What a fault tap decided for one message. kPass delivers normally (the tap
// may still have mutated the message — corruption); kDrop swallows it; kDup
// delivers it twice; kDelay holds it for `delay` before delivery.
enum class ChanTapAction : uint8_t { kPass, kDrop, kDuplicate, kDelay };

struct ChanTapDecision {
  ChanTapAction action = ChanTapAction::kPass;
  SimTime delay = 0;  // kDelay only
};

template <typename T>
class SimChannel {
 public:
  SimChannel(Simulation* sim, std::string name, size_t capacity, ChannelCostModel cost = {})
      : sim_(sim), name_(std::move(name)), capacity_(capacity), cost_(cost) {}

  SimChannel(const SimChannel&) = delete;
  SimChannel& operator=(const SimChannel&) = delete;

  const std::string& name() const { return name_; }
  const ChannelCostModel& cost() const { return cost_; }
  const ChannelStats& stats() const { return stats_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }
  bool full() const { return queue_.size() >= capacity_; }

  // `fn` fires (after the visibility latency) when the channel transitions
  // empty -> non-empty. This models the consumer's poll loop noticing the
  // head index change, or a doorbell if the consumer's core is halted.
  void SetNotify(std::function<void()> fn) { notify_ = std::move(fn); }

  // Installs (or clears, with nullptr) the fault tap. The tap runs on every
  // Push before the message enters the ring and may mutate the message.
  void SetTap(std::function<ChanTapDecision(T&)> tap) { tap_ = std::move(tap); }
  bool has_tap() const { return static_cast<bool>(tap_); }

  // Tracing: once wired, every traceable message (TraceIdsOf(msg).hop != 0)
  // records an async begin at enqueue and the matching end at dequeue, paired
  // by the hop id — the enqueue→dequeue edge is the message's residence in
  // this ring. Recording is allocation-free and off until the recorder is
  // enabled.
  void EnableTrace(TraceRecorder* rec, TrackId track, NameId hop_name) {
    trace_rec_ = rec;
    trace_track_ = track;
    trace_hop_ = hop_name;
  }

  // Protocol checker (src/check/channel_checker.h): validates the SPSC
  // discipline and FIFO order on this channel. Wired once at setup; with no
  // checker attached every hook is one predictable branch.
  void EnableCheck(ChannelChecker* check) {
    check_ = check;
    if (check_ != nullptr) {
      check_->Register(this, name_);
    }
  }
  ChannelChecker* check() const { return check_; }

  // Enqueues; returns false if the channel is full (message dropped, counted).
  // A tap-injected drop returns true: the producer's enqueue succeeded, the
  // message was lost in transit — indistinguishable from the producer's side.
  bool Push(T msg) {
    const uint64_t seq = ++check_seq_;
    if (check_ != nullptr) {
      check_->OnProducerPush(this, seq, TraceIdsOf(msg).hop);
    }
    if (tap_) {
      const ChanTapDecision d = tap_(msg);
      switch (d.action) {
        case ChanTapAction::kPass:
          break;
        case ChanTapAction::kDrop:
          ++stats_.injected_drops;
          if (check_ != nullptr) {
            check_->OnDrop(this, TraceIdsOf(msg).hop);
          }
          return true;
        case ChanTapAction::kDuplicate:
          ++stats_.injected_dups;
          EnqueueInOrder(msg, seq);  // the copy; capacity full_drops apply as usual
          break;
        case ChanTapAction::kDelay:
          ++stats_.injected_delays;
          delayed_.push_back(Delayed{sim_->Now() + d.delay, std::move(msg), seq});
          sim_->Schedule(d.delay, [this] { ReleaseDelayed(); });
          return true;
      }
    }
    return EnqueueInOrder(std::move(msg), seq);
  }

  std::optional<T> Pop() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    std::optional<T> out(std::move(queue_.front()));
    queue_.pop_front();
    ++stats_.pops;
    if (check_ != nullptr) {
      check_->OnPop(this, TraceIdsOf(*out).hop);
    }
    if (TraceOn(trace_rec_)) {
      const TraceIds ids = TraceIdsOf(*out);
      if (ids.hop != 0) {
        trace_rec_->AsyncEnd(sim_->Now(), trace_track_, trace_hop_, ids.hop);
      }
    }
    return out;
  }

  const T* Front() const { return queue_.empty() ? nullptr : &queue_.front(); }

 private:
  struct Delayed {
    SimTime due = 0;
    T msg;
    uint64_t check_seq = 0;  // push-cursor value, for the protocol checker
  };

  // A message that arrives while earlier ones are held back by a delay tap
  // must not overtake them: the ring is a FIFO, and a stalled slot blocks
  // everything behind it. Queue it behind the held messages, already due;
  // the pending release event delivers the whole run in push order.
  bool EnqueueInOrder(T msg, [[maybe_unused]] uint64_t seq) {
    if (!delayed_.empty()) {
      delayed_.push_back(Delayed{sim_->Now(), std::move(msg), seq});
      return true;  // accepted; capacity is accounted at release, like kDelay
    }
    return PushDirect(std::move(msg), seq);
  }

  bool PushDirect(T msg, uint64_t seq = 0) {
    if (full()) {
      ++stats_.full_drops;
      if (check_ != nullptr) {
        check_->OnDrop(this, TraceIdsOf(msg).hop);
      }
      return false;
    }
    if (TraceOn(trace_rec_)) {
      const TraceIds ids = TraceIdsOf(msg);
      if (ids.hop != 0) {
        trace_rec_->AsyncBegin(sim_->Now(), trace_track_, trace_hop_, ids.hop);
      }
    }
    if (check_ != nullptr) {
      check_->OnDeliver(this, seq);
    }
    const bool was_empty = queue_.empty();
    queue_.push_back(std::move(msg));
    ++stats_.pushes;
    stats_.max_depth = std::max(stats_.max_depth, queue_.size());
    if (was_empty && notify_) {
      sim_->Schedule(cost_.visibility_latency, [this] {
        // Re-check: the consumer may have drained it via a direct Pop already.
        if (!queue_.empty() && notify_) {
          notify_();
        }
      });
    }
    return true;
  }

  // Delivers every held-back message that has come due. Delayed messages
  // release strictly in hold order: a message delayed longer blocks later,
  // shorter-delayed ones behind it (head-of-line blocking, like a stalled
  // ring slot); each pending entry has its own scheduled release event, so
  // nothing is ever stranded.
  void ReleaseDelayed() {
    while (!delayed_.empty() && delayed_.front().due <= sim_->Now()) {
      PushDirect(std::move(delayed_.front().msg), delayed_.front().check_seq);
      delayed_.pop_front();
    }
  }

  Simulation* sim_;
  std::string name_;
  size_t capacity_;
  ChannelCostModel cost_;
  RingDeque<T> queue_;
  RingDeque<Delayed> delayed_;  // tap-held messages awaiting release
  std::function<void()> notify_;
  std::function<ChanTapDecision(T&)> tap_;
  ChannelStats stats_;

  TraceRecorder* trace_rec_ = nullptr;
  TrackId trace_track_ = 0;
  NameId trace_hop_ = 0;

  ChannelChecker* check_ = nullptr;
  uint64_t check_seq_ = 0;  // push cursor: strictly monotone per channel
};

}  // namespace newtos

#endif  // SRC_CHAN_SIM_CHANNEL_H_

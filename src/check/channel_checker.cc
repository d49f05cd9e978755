#include "src/check/channel_checker.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace newtos {
namespace {

// Rule bits for per-ring flood control: the first occurrence of a rule on a
// ring is stored with full detail, repeats only bump the suppressed counter.
enum RuleBit : uint32_t {
  kSecondProducer = 1u << 0,
  kSecondConsumer = 1u << 1,
  kPushSeqRegression = 1u << 2,
  kDeliverReorder = 1u << 3,
  kPopBeforePush = 1u << 4,
  kHandleReuse = 1u << 5,
  kUnwired = 1u << 6,
};

// Cap on stored trace violations per AnalyzeTrace call; a trace with a
// systematic fault would otherwise flood the report with one entry per event.
constexpr size_t kTraceViolationBudget = 64;

void AddUnique(std::vector<std::string>* v, const std::string& s) {
  const auto it = std::lower_bound(v->begin(), v->end(), s);
  if (it == v->end() || *it != s) {
    v->insert(it, s);
  }
}

std::string Join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) {
    if (!out.empty()) {
      out += ',';
    }
    out += s;
  }
  return out;
}

}  // namespace

void AddWiredEdge(std::vector<WiredRing>* rings, const std::string& name,
                  const std::string& producer, const std::string& consumer) {
  auto it = std::lower_bound(rings->begin(), rings->end(), name,
                             [](const WiredRing& r, const std::string& n) { return r.name < n; });
  if (it == rings->end() || it->name != name) {
    it = rings->insert(it, WiredRing{});
    it->name = name;
  }
  if (!consumer.empty()) {
    AddUnique(&it->consumers, consumer);
  }
  if (!producer.empty()) {
    AddUnique(&it->producers, producer);
  }
}

std::string RenderWiring(const std::vector<WiredRing>& rings) {
  std::string out;
  for (const WiredRing& r : rings) {
    out += "ring " + r.name + " consumer=" + Join(r.consumers) + " producers=" +
           Join(r.producers) + "\n";
  }
  return out;
}

uint32_t ChannelChecker::RegisterActor(std::string name) {
  actor_names_.push_back(std::move(name));
  return static_cast<uint32_t>(actor_names_.size());
}

void ChannelChecker::Register(const void* ring, std::string name) {
  auto [it, inserted] = rings_.try_emplace(ring);
  if (inserted) {
    ring_order_.push_back(ring);
  }
  it->second.name = std::move(name);
}

void ChannelChecker::DeclareSharedProducers(const void* ring, std::string reason) {
  RingState& rs = StateFor(ring);
  rs.shared = true;
  rs.shared_reason = std::move(reason);
}

void ChannelChecker::DeclareUnwired(const void* ring, std::string detail) {
  AddViolation(StateFor(ring), kUnwired, "unwired-ring", std::move(detail));
}

void ChannelChecker::BindConsumer(const void* ring, uint32_t actor) {
  if (actor == 0) {
    return;
  }
  RingState& rs = StateFor(ring);
  if (rs.consumer == 0) {
    rs.consumer = actor;
  } else if (rs.consumer != actor) {
    std::ostringstream os;
    os << "ring is owned by consumer '" << ActorName(rs.consumer) << "' but '" << ActorName(actor)
       << "' was bound as its consumer";
    AddViolation(rs, kSecondConsumer, "second-consumer", os.str());
  }
}

ChannelChecker::RingState& ChannelChecker::StateFor(const void* ring) {
  auto [it, inserted] = rings_.try_emplace(ring);
  if (inserted) {
    ring_order_.push_back(ring);
    it->second.name = "<unregistered>";
  }
  return it->second;
}

const std::string& ChannelChecker::ActorName(uint32_t actor) const {
  static const std::string kAnon = "<anonymous>";
  if (actor == 0 || actor > actor_names_.size()) {
    return kAnon;
  }
  return actor_names_[actor - 1];
}

void ChannelChecker::AddViolation(RingState& rs, uint32_t bit, const char* rule,
                                  std::string detail) {
  if ((rs.reported & bit) != 0) {
    ++suppressed_;
    return;
  }
  rs.reported |= bit;
  violations_.push_back(Violation{rs.name, rule, std::move(detail)});
}

void ChannelChecker::EraseLiveHop(RingState& rs, uint64_t hop) {
  if (hop == 0) {
    return;
  }
  for (size_t i = 0; i < rs.live_hops.size(); ++i) {
    if (rs.live_hops[i] == hop) {
      rs.live_hops[i] = rs.live_hops.back();
      rs.live_hops.pop_back();
      return;
    }
  }
}

void ChannelChecker::OnProducerPush(const void* ring, uint64_t seq, uint64_t hop) {
  RingState& rs = StateFor(ring);
  ++rs.pushes;
  if (current_actor_ != 0) {
    bool known = false;
    for (const uint32_t p : rs.all_producers) {
      if (p == current_actor_) {
        known = true;
        break;
      }
    }
    if (!known) {
      rs.all_producers.push_back(current_actor_);
    }
  }
  if (!rs.shared && current_actor_ != 0) {
    if (rs.producer == 0) {
      rs.producer = current_actor_;
    } else if (rs.producer != current_actor_) {
      std::ostringstream os;
      os << "ring is owned by producer '" << ActorName(rs.producer) << "' but '"
         << ActorName(current_actor_)
         << "' pushed into it (declare shared producers if intended)";
      AddViolation(rs, kSecondProducer, "second-producer", os.str());
    }
  }
  if (seq != 0) {
    if (seq <= rs.last_push_seq) {
      std::ostringstream os;
      os << "push cursor moved backwards: seq " << seq << " after " << rs.last_push_seq;
      AddViolation(rs, kPushSeqRegression, "push-seq-regression", os.str());
    } else {
      rs.last_push_seq = seq;
    }
  }
  if (hop != 0) {
    for (const uint64_t live : rs.live_hops) {
      if (live == hop) {
        std::ostringstream os;
        os << "hop/handle " << hop << " pushed while its previous life is still in flight "
           << "(pooled handle recycled too early?)";
        AddViolation(rs, kHandleReuse, "handle-reuse", os.str());
        break;
      }
    }
    rs.live_hops.push_back(hop);
  }
}

void ChannelChecker::OnDeliver(const void* ring, uint64_t seq) {
  RingState& rs = StateFor(ring);
  ++rs.delivers;
  if (seq != 0) {
    // Equal is legal: a duplicate tap delivers one push twice. Backwards is
    // the FIFO violation — a later push overtook an earlier one in transit.
    if (seq < rs.last_deliver_seq) {
      std::ostringstream os;
      os << "FIFO broken: push #" << seq << " delivered after push #" << rs.last_deliver_seq;
      AddViolation(rs, kDeliverReorder, "deliver-reorder", os.str());
    } else {
      rs.last_deliver_seq = seq;
    }
  }
  rs.delivered_fifo.push_back(seq);
}

void ChannelChecker::OnDrop(const void* ring, uint64_t hop) {
  RingState& rs = StateFor(ring);
  ++rs.drops;
  EraseLiveHop(rs, hop);
}

void ChannelChecker::OnPop(const void* ring, uint64_t hop) {
  RingState& rs = StateFor(ring);
  ++rs.pops;
  if (current_actor_ != 0) {
    // Consumer identity is checked even on declared-shared rings: shared
    // means many producers, never many consumers (MPSC at worst).
    if (rs.consumer == 0) {
      rs.consumer = current_actor_;
    } else if (rs.consumer != current_actor_) {
      std::ostringstream os;
      os << "ring is owned by consumer '" << ActorName(rs.consumer) << "' but '"
         << ActorName(current_actor_) << "' popped from it";
      AddViolation(rs, kSecondConsumer, "second-consumer", os.str());
    }
  }
  if (rs.fifo_head == rs.delivered_fifo.size()) {
    AddViolation(rs, kPopBeforePush, "pop-before-push",
                 "a message was popped that the checker never saw delivered");
  } else {
    ++rs.fifo_head;
    if (rs.fifo_head == rs.delivered_fifo.size()) {
      rs.delivered_fifo.clear();
      rs.fifo_head = 0;
    }
  }
  EraseLiveHop(rs, hop);
}

void ChannelChecker::AddTraceViolation(std::string track, const char* rule, std::string detail,
                                       size_t* budget) {
  if (*budget == 0) {
    ++suppressed_;
    return;
  }
  --*budget;
  violations_.push_back(Violation{std::move(track), rule, std::move(detail)});
}

size_t ChannelChecker::AnalyzeTrace(const TraceRecorder& rec, const TraceOptions& opts) {
  // Offline happens-before replay. In a single-threaded DES the recording
  // order is a total order consistent with causality, so every async edge
  // (enqueue -> dequeue of one message in one ring, paired by hop id on the
  // ring's track) must satisfy: the begin is recorded before its end, the
  // end's timestamp is not before the begin's, and each track's async
  // timestamps never run backwards. Each track carries a vector clock,
  // ticked on its own async events; a begin snapshots its track's clock and
  // the matching end joins that snapshot into the consumer-side clock — so
  // the clocks encode the full cross-ring causal order of the run, and any
  // edge that contradicts the recorded order surfaces as a violation here.
  struct PendingBegin {
    SimTime ts = 0;
    std::vector<uint64_t> clock;
  };
  struct HopKey {
    uint32_t track = 0;
    uint32_t name = 0;
    uint64_t hop = 0;
    bool operator==(const HopKey& o) const {
      return track == o.track && name == o.name && hop == o.hop;
    }
  };
  struct HopKeyHash {
    size_t operator()(const HopKey& k) const {
      uint64_t h = k.hop * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<uint64_t>(k.track) << 32) | k.name;
      h *= 0xff51afd7ed558ccdull;
      return static_cast<size_t>(h ^ (h >> 33));
    }
  };

  const size_t before = violations_.size();
  size_t budget = kTraceViolationBudget;
  std::vector<std::vector<uint64_t>> clocks;   // per track
  std::vector<SimTime> last_async_ts;          // per track
  std::vector<uint8_t> ts_seen;                // per track: last_async_ts valid
  std::unordered_map<HopKey, std::vector<PendingBegin>, HopKeyHash> in_flight;

  auto track_slot = [&](uint32_t t) {
    if (t >= clocks.size()) {
      clocks.resize(t + 1);
      last_async_ts.resize(t + 1, 0);
      ts_seen.resize(t + 1, 0);
    }
    if (clocks[t].size() < clocks.size()) {
      clocks[t].resize(clocks.size(), 0);
    }
  };
  auto join = [](std::vector<uint64_t>& into, const std::vector<uint64_t>& from) {
    if (into.size() < from.size()) {
      into.resize(from.size(), 0);
    }
    for (size_t i = 0; i < from.size(); ++i) {
      if (from[i] > into[i]) {
        into[i] = from[i];
      }
    }
  };

  rec.ForEach([&](const TraceEvent& e) {
    if (e.type != TraceEventType::kAsyncBegin && e.type != TraceEventType::kAsyncEnd) {
      return;
    }
    const uint32_t t = e.track;
    track_slot(t);
    ++clocks[t][t];  // local tick
    if (ts_seen[t] != 0 && e.ts < last_async_ts[t]) {
      std::ostringstream os;
      os << "async time ran backwards on track '" << rec.TrackOf(e.track).name << "': "
         << e.ts << " after " << last_async_ts[t];
      AddTraceViolation(rec.TrackOf(e.track).name, "track-time-regression", os.str(), &budget);
    }
    last_async_ts[t] = e.ts;
    ts_seen[t] = 1;

    const HopKey key{t, e.name, e.flow};
    if (e.type == TraceEventType::kAsyncBegin) {
      std::vector<PendingBegin>& fifo = in_flight[key];
      if (opts.strict_handle_reuse && !fifo.empty()) {
        std::ostringstream os;
        os << "hop " << e.flow << " ('" << rec.NameOf(e.name) << "') began again on track '"
           << rec.TrackOf(e.track).name << "' while still in flight";
        AddTraceViolation(rec.TrackOf(e.track).name, "handle-reuse", os.str(), &budget);
      }
      fifo.push_back(PendingBegin{e.ts, clocks[t]});
      return;
    }
    auto it = in_flight.find(key);
    if (it == in_flight.end() || it->second.empty()) {
      std::ostringstream os;
      os << "hop " << e.flow << " ('" << rec.NameOf(e.name) << "') dequeued on track '"
         << rec.TrackOf(e.track).name << "' with no matching enqueue";
      AddTraceViolation(rec.TrackOf(e.track).name, "end-without-begin", os.str(), &budget);
      return;
    }
    PendingBegin begin = std::move(it->second.front());
    it->second.erase(it->second.begin());
    if (e.ts < begin.ts) {
      std::ostringstream os;
      os << "hop " << e.flow << " ('" << rec.NameOf(e.name) << "') delivered at " << e.ts
         << ", before its enqueue at " << begin.ts;
      AddTraceViolation(rec.TrackOf(e.track).name, "hb-inversion", os.str(), &budget);
    }
    join(clocks[t], begin.clock);
  });
  // Hops still in flight at the end of the window are normal (messages
  // resident in rings when the run stopped, or begins that fell off the
  // ring's overwrite window) — not violations.
  return violations_.size() - before;
}

void ChannelChecker::OnLiveRingSummary(const std::string& ring_name, uint64_t pushes,
                                       uint64_t pops, uint64_t imposters) {
  live_rings_.push_back(LiveRing{ring_name, pushes, pops, imposters});
  if (imposters > 0) {
    violations_.push_back(Violation{ring_name, "imposter-actor",
                                    std::to_string(imposters) +
                                        " foreign-thread operation(s) on a bound SPSC side"});
  }
  if (pushes != pops) {
    violations_.push_back(Violation{ring_name, "live-conservation",
                                    "pushes=" + std::to_string(pushes) +
                                        " != pops=" + std::to_string(pops) +
                                        " after quiesce (messages lost or stuck)"});
  }
}

void ChannelChecker::Report(std::ostream& os) const {
  os << "channel checker: " << (ok() ? "OK" : "VIOLATIONS") << " — " << violations_.size()
     << " violation(s), " << suppressed_ << " suppressed, " << ring_order_.size()
     << " ring(s)\n";
  for (const void* ring : ring_order_) {
    const auto it = rings_.find(ring);
    if (it == rings_.end()) {
      continue;
    }
    const RingState& rs = it->second;
    os << "  ring '" << rs.name << "': pushes=" << rs.pushes << " delivers=" << rs.delivers
       << " pops=" << rs.pops << " drops=" << rs.drops;
    if (rs.producer != 0 || rs.consumer != 0) {
      os << " producer='" << ActorName(rs.producer) << "' consumer='" << ActorName(rs.consumer)
         << "'";
    }
    if (rs.shared) {
      os << " [shared producers: " << rs.shared_reason << "]";
    }
    os << "\n";
  }
  for (const LiveRing& lr : live_rings_) {
    os << "  live ring '" << lr.name << "': pushes=" << lr.pushes << " pops=" << lr.pops
       << " imposters=" << lr.imposters << "\n";
  }
  for (const Violation& v : violations_) {
    os << "  VIOLATION [" << v.rule << "] " << (v.ring.empty() ? "<trace>" : v.ring) << ": "
       << v.detail << "\n";
  }
}

std::vector<WiredRing> ChannelChecker::Wiring() const {
  std::vector<WiredRing> rings;
  for (const void* ring : ring_order_) {
    const auto it = rings_.find(ring);
    if (it == rings_.end() || it->second.name == "<unregistered>") {
      continue;
    }
    const RingState& rs = it->second;
    const std::string consumer = rs.consumer != 0 ? ActorName(rs.consumer) : std::string();
    AddWiredEdge(&rings, rs.name, std::string(), consumer);
    for (const uint32_t p : rs.all_producers) {
      AddWiredEdge(&rings, rs.name, ActorName(p), consumer);
    }
  }
  return rings;
}

}  // namespace newtos

// ChannelChecker: a debug-gated protocol validator for the simulated rings.
//
// The simulator's channels are SPSC by construction — one producer server,
// one consumer server per ring, exactly like the shared-memory rings of the
// NewtOS stack the model reproduces. Nothing *enforces* that: a mis-wired
// testbed, a buggy fault tap, or a refactor that routes two servers into one
// ring silently breaks the discipline, and the only symptom is a determinism
// golden changing three PRs later. This checker makes the discipline an
// explicit, checkable protocol:
//
//   * identity    — the first non-anonymous actor to Push into a ring owns
//                   its producer side forever; same for Pop and the consumer
//                   side. A second identity on either side is a violation,
//                   unless the ring was declared shared (see below).
//   * cursors     — push sequence numbers are assigned by the channel and
//                   must be strictly monotone; delivery must be monotone too
//                   (equal allowed: a duplicate tap delivers one seq twice).
//                   A delivery that goes *backwards* is a FIFO violation —
//                   this is exactly how a fault tap that lets fresh messages
//                   overtake delayed ones gets caught.
//   * handles     — a hop id (packet id) pushed while the same id is still
//                   in flight in the same ring means a pooled handle was
//                   recycled while its previous life was still traveling.
//
// Some rings are multi-producer BY DESIGN (the IP TX ring takes segments
// from every L4 server; the watchdog's ack ring hears from every watched
// server). Those are declared with DeclareSharedProducers(ring, reason) —
// the deviation is recorded and reported, never silent.
//
// Violations are collected, not asserted: some builds (perfbench's stock
// RelWithDebInfo among them) compile with NDEBUG, and a checker that only
// works in one build type checks nothing. Call ok() / Report() at the end of
// a run.
//
// AnalyzeTrace() is the offline half: it replays the recorder's async-hop
// events (enqueue/dequeue edges) through per-track vector clocks and flags
// causal races — a dequeue with no matching enqueue, a delivery timestamped
// before its send, per-track time running backwards.
//
// Threading: single-threaded, like the simulator. The real-thread SPSC ring
// has its own independent identity check (src/chan/spsc_ring.h).

#ifndef SRC_CHECK_CHANNEL_CHECKER_H_
#define SRC_CHECK_CHANNEL_CHECKER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/trace/recorder.h"

namespace newtos {

// One ring of a wiring: a rendered table (src/check/stack_check.h) or what a
// run observed (ChannelChecker::Wiring).
struct WiredRing {
  std::string name;
  std::vector<std::string> consumers;   // sorted, unique
  std::vector<std::string> producers;   // sorted, unique; empty = fed from outside
  const char* shared_reason = nullptr;  // several producers by design
};

// Adds one producer -> ring edge, keeping `rings` sorted by name and merging
// by name. An empty producer or consumer adds the ring without that side.
void AddWiredEdge(std::vector<WiredRing>* rings, const std::string& name,
                  const std::string& producer, const std::string& consumer);

// Canonical wiring text, one line per ring:
//   ring <name> consumer=<c> producers=<p1,p2>
std::string RenderWiring(const std::vector<WiredRing>& rings);

class ChannelChecker {
 public:
  struct Violation {
    std::string ring;    // channel (or trace track) name; may be empty
    std::string rule;    // stable rule id, e.g. "second-producer"
    std::string detail;  // human-readable specifics
  };

  ChannelChecker() = default;
  ChannelChecker(const ChannelChecker&) = delete;
  ChannelChecker& operator=(const ChannelChecker&) = delete;

  // --- Wiring (may allocate; happens at testbed construction) ---

  // Registers a named actor (a server); returns its id (>= 1). Id 0 is the
  // anonymous actor: operations from unregistered contexts (tests poking a
  // channel directly, timer callbacks) neither bind nor violate identities.
  uint32_t RegisterActor(std::string name);

  // Registers a ring under `name`. Channels call this from EnableCheck.
  void Register(const void* ring, std::string name);

  // Declares the ring multi-producer by design. The reason is mandatory and
  // shows up in Report() — shared rings are deviations, not defaults.
  void DeclareSharedProducers(const void* ring, std::string reason);

  // Records a ring the code builds but its stack's wiring table has no row
  // for (StackChecker::Attach calls this), as an "unwired-ring" violation.
  void DeclareUnwired(const void* ring, std::string detail);

  // Binds the consumer identity at wiring time (Server::EnableCheck calls
  // this for every owned input). Popping already binds lazily; the explicit
  // bind makes never-popped rings carry their consumer in Wiring(), and
  // a second bind is the same second-consumer violation a foreign Pop is.
  void BindConsumer(const void* ring, uint32_t actor);

  // Scopes the current actor identity (RAII; the sim is single-threaded, so
  // a plain save/restore is exact). Null checker is a no-op.
  class ScopedActor {
   public:
    ScopedActor(ChannelChecker* check, uint32_t actor) : check_(check) {
      if (check_ != nullptr) {
        prev_ = check_->current_actor_;
        check_->current_actor_ = actor;
      }
    }
    ~ScopedActor() {
      if (check_ != nullptr) {
        check_->current_actor_ = prev_;
      }
    }
    ScopedActor(const ScopedActor&) = delete;
    ScopedActor& operator=(const ScopedActor&) = delete;

   private:
    ChannelChecker* check_;
    uint32_t prev_ = 0;
  };

  uint32_t current_actor() const { return current_actor_; }

  // --- Live hooks (called by SimChannel; cheap, but only wired in debug) ---

  // Producer side: a message entered Push. `seq` is the channel's push
  // cursor (strictly monotone per ring); `hop` the message's trace id, 0 if
  // untraceable.
  void OnProducerPush(const void* ring, uint64_t seq, uint64_t hop);

  // A message landed in the ring (after any tap) carrying push-cursor `seq`.
  void OnDeliver(const void* ring, uint64_t seq);

  // A message left the system without delivery (tap drop, capacity drop).
  void OnDrop(const void* ring, uint64_t hop);

  // Consumer side: a message was popped.
  void OnPop(const void* ring, uint64_t hop);

  // --- Live-mode summary (real-thread backend) ---

  // The live backend's ThreadChannels run on real threads, where the
  // single-threaded hooks above cannot be called; there the SpscRing's own
  // first-touch identity check counts imposters during the run, and the
  // LiveStack folds each ring's post-join counters in here. A non-zero
  // imposter count or a push/pop imbalance becomes a regular violation, so
  // both backends end a run answering "did anything break the channel
  // protocol?" through the same ok()/Report() surface.
  void OnLiveRingSummary(const std::string& ring_name, uint64_t pushes, uint64_t pops,
                         uint64_t imposters);

  // --- Offline trace analysis ---

  struct TraceOptions {
    // Flag a hop id beginning twice on one track while still in flight.
    // Off by default: duplicate taps legitimately alias hop ids.
    bool strict_handle_reuse = false;
  };

  // Replays async begin/end events through per-track vector clocks; appends
  // any causal violations and returns how many were found.
  size_t AnalyzeTrace(const TraceRecorder& rec, const TraceOptions& opts);
  size_t AnalyzeTrace(const TraceRecorder& rec) { return AnalyzeTrace(rec, TraceOptions()); }

  // --- Results ---

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }

  struct LiveRing {
    std::string name;
    uint64_t pushes = 0;
    uint64_t pops = 0;
    uint64_t imposters = 0;
  };
  const std::vector<LiveRing>& live_rings() const { return live_rings_; }
  // Repeats of an already-reported (ring, rule) pair, counted not stored.
  uint64_t suppressed() const { return suppressed_; }
  void Report(std::ostream& os) const;

  // The observed wiring: every registered ring with its bound consumer and
  // every non-anonymous actor that pushed into it (shared rings included),
  // merged by ring name as a rendered table is — every TCP shard owns a
  // "tcp/rx". RenderWiring of this equals RenderWiring of a table exactly
  // when the run took the table's edges and no others.
  std::vector<WiredRing> Wiring() const;

 private:
  struct RingState {
    std::string name;
    bool shared = false;
    std::string shared_reason;
    uint32_t producer = 0;  // actor ids; 0 = not yet bound
    uint32_t consumer = 0;
    // Every non-anonymous actor ever seen pushing, shared rings included —
    // the identity check above stops at `producer`, but Wiring() needs
    // the full producer set to compare against the wiring tables.
    std::vector<uint32_t> all_producers;
    uint64_t last_push_seq = 0;
    uint64_t last_deliver_seq = 0;
    uint64_t pushes = 0;
    uint64_t delivers = 0;
    uint64_t drops = 0;
    uint64_t pops = 0;
    // Delivery window: seqs delivered but not yet popped, a flat FIFO.
    std::vector<uint64_t> delivered_fifo;
    size_t fifo_head = 0;
    // Hop ids pushed and neither popped nor dropped yet.
    std::vector<uint64_t> live_hops;
    uint32_t reported = 0;  // bitmask of rules already reported for this ring
  };

  RingState& StateFor(const void* ring);
  const std::string& ActorName(uint32_t actor) const;
  void AddViolation(RingState& rs, uint32_t bit, const char* rule, std::string detail);
  void AddTraceViolation(std::string track, const char* rule, std::string detail,
                         size_t* budget);
  static void EraseLiveHop(RingState& rs, uint64_t hop);

  uint32_t current_actor_ = 0;
  std::vector<LiveRing> live_rings_;
  std::vector<std::string> actor_names_;  // index = actor id - 1
  std::unordered_map<const void*, RingState> rings_;
  std::vector<const void*> ring_order_;  // registration order, for Report()
  std::vector<Violation> violations_;
  uint64_t suppressed_ = 0;
};

}  // namespace newtos

#endif  // SRC_CHECK_CHANNEL_CHECKER_H_

#include "src/runtime/live_stack.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <optional>
#include <string_view>
#include <utility>

#include "src/check/channel_checker.h"
#include "src/os/stack.h"
#include "src/runtime/clock.h"
#include "src/runtime/live_wiring.h"

namespace newtos {

// While an ack is pending the heartbeats stay where they lie in `in`, so
// one slot is all the backlog a server ever keeps for the watchdog.
bool ServiceWd(WdPort& wd, bool* wd_done) {
  if (!wd.active()) {
    return false;
  }
  bool work = false;
  if (wd.pending_ack && wd.out->TryEmplace(RtMsg::Type::kHeartbeatAck, *wd.pending_ack)) {
    wd.pending_ack.reset();
    work = true;
  }
  while (!wd.pending_ack) {
    const RtMsg* m = wd.in->Front();
    if (m == nullptr) {
      break;
    }
    work = true;
    const RtMsg::Type type = m->type;
    const uint32_t round = m->seq;
    wd.in->PopFront();
    if (type == RtMsg::Type::kHeartbeat) {
      if (!wd.out->TryEmplace(RtMsg::Type::kHeartbeatAck, round)) {
        wd.pending_ack = round;
      }
    } else if (type == RtMsg::Type::kShutdown) {
      *wd_done = true;
    }
  }
  return work;
}

bool WdCanProgress(const WdPort& wd) {
  if (!wd.active()) {
    return false;
  }
  return wd.pending_ack ? wd.out->HasSpaceProducer() : !wd.in->EmptyConsumer();
}

namespace {

// State shared across server threads. Everything here is either atomic or
// owned by exactly one thread until after Join().
struct SharedState {
  const LiveStackConfig* cfg = nullptr;
  RuntimeClock clock;
  std::atomic<bool> transfer_done{false};
  std::atomic<int> exited{0};
  IdleGate* wd_gate = nullptr;  // rung when transfer_done flips
};

// The peer thread's results, written on every message and read post-join
// only. Its own cache lines: it lives on RunLiveFig2's stack beside state
// the other threads read on every loop, and where the compiler put it there
// used to decide live_rtt's speed (a layout shift alone cost 15-39% of its
// goodput on the 4-CPU host).
struct alignas(kCacheLineBytes) PeerOut {
  uint64_t delivered = 0;
  uint64_t chunks = 0;
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis
  uint64_t payload_errors = 0;
  bool saw_shutdown = false;
  LatencyHistogram latency;
};

struct WdOut {
  uint64_t rounds = 0;
};

// --- Server bodies -------------------------------------------------------
//
// Every body follows the same shape: a non-blocking service loop (a message
// bound for a full output stays in its input ring, or for a generated ack in
// a one-slot pending buffer, never a blocked push), a ServiceWd step, and
// ctx.Idle() with a recheck that mirrors exactly the conditions under which
// the loop could make progress.

// The app sends each segment over two rings it alone produces on: the
// bytes into `pay_out` first, then the header into `out`, so the peer
// never sees a header before its payload. A header the full `out` refused
// is retried alone; its payload already waits in `pay_out`, which has room
// for every header the data rings can hold plus that one (RunLiveFig2).
void AppBody(ServerContext& ctx, SharedState* sh, ThreadChannel<RtMsg>* out,
             ThreadChannel<RtPayload>* pay_out, WdPort wd, TraceRecorder* rec, TrackId track,
             NameId e2e) {
  const uint64_t total = sh->cfg->transfer_bytes;
  const uint32_t mss = sh->cfg->mss;
  uint64_t off = 0;
  uint32_t seq = 0;
  bool shutdown_sent = false;
  bool wd_done = !wd.active();
  RtMsg m;
  bool payload_sent = false;  // m's payload is in pay_out, its header not yet in out

  while (!(shutdown_sent && wd_done)) {
    if (ctx.StopRequested()) {
      return;
    }
    bool work = false;
    if (off < total) {
      if (!payload_sent) {
        const uint32_t len =
            static_cast<uint32_t>(std::min<uint64_t>(mss, total - off));
        if (pay_out->TryEmplace(off, len)) {
          m = RtMsg(RtMsg::Type::kData, seq, off);
          m.len = static_cast<uint16_t>(len);
          payload_sent = true;
        }
      }
      if (payload_sent) {
        m.born_ns = sh->clock.NowNs();
        if (out->TryPush(m)) {
          if (TraceOn(rec)) {
            rec->AsyncBegin(sh->clock.NowPs(), track, e2e, seq + 1);
          }
          off += m.len;
          ++seq;
          payload_sent = false;
          work = true;
        }
      }
    } else if (!shutdown_sent) {
      if (out->TryEmplace(RtMsg::Type::kShutdown, seq)) {
        shutdown_sent = true;
        work = true;
      }
    }
    work |= ServiceWd(wd, &wd_done);
    ctx.Idle(work, [&] {
      return (!shutdown_sent && out->HasSpaceProducer()) || WdCanProgress(wd);
    });
  }
}

void TcpBody(ServerContext& ctx, SharedState* sh, ThreadChannel<RtMsg>* data_in,
             ThreadChannel<RtMsg>* data_out, ThreadChannel<RtMsg>* ack_in, WdPort wd) {
  const uint64_t window = sh->cfg->window_bytes;
  uint64_t acked_bytes = 0;
  bool fwd_shutdown = false;   // data-path shutdown forwarded downstream
  bool ack_shutdown = false;   // ack-path shutdown received (all data acked)
  bool wd_done = !wd.active();

  // A data segment is admissible when it fits the in-flight window (acks
  // are cumulative byte counts from the peer). Shutdown rides behind the
  // last segment and is never window-gated — but FIFO order means it can
  // never overtake a withheld segment either.
  auto admissible = [&](const RtMsg& f) {
    return f.type != RtMsg::Type::kData || f.stream_off + f.len <= acked_bytes + window;
  };

  while (!(fwd_shutdown && ack_shutdown && wd_done)) {
    if (ctx.StopRequested()) {
      return;
    }
    bool work = false;
    while (const RtMsg* a = ack_in->Front()) {
      work = true;
      if (a->type == RtMsg::Type::kAck) {
        acked_bytes = std::max(acked_bytes, a->stream_off);
      } else if (a->type == RtMsg::Type::kShutdown) {
        ack_shutdown = true;
      }
      ack_in->PopFront();
    }
    // Slot to slot: a segment leaves data_in only once data_out took it, so
    // a full output leaves it where it lies and the loop moves on.
    while (!fwd_shutdown) {
      const RtMsg* front = data_in->Front();
      if (front == nullptr || !admissible(*front) || !data_out->TryPush(*front)) {
        break;
      }
      fwd_shutdown = front->type == RtMsg::Type::kShutdown;
      data_in->PopFront();
      work = true;
    }
    work |= ServiceWd(wd, &wd_done);
    ctx.Idle(work, [&] {
      if (!ack_in->EmptyConsumer() || WdCanProgress(wd)) {
        return true;
      }
      if (!fwd_shutdown) {
        const RtMsg* front = data_in->Front();
        return front != nullptr && admissible(*front) && data_out->HasSpaceProducer();
      }
      return false;
    });
  }
}

// Bidirectional store-and-forward: the live ip server shuttles data down
// and acks up, slot to slot.
struct ForwardDir {
  ThreadChannel<RtMsg>* in = nullptr;
  ThreadChannel<RtMsg>* out = nullptr;
  bool shutdown_forwarded = false;
};

bool ForwardStep(ForwardDir& d) {
  bool work = false;
  while (!d.shutdown_forwarded) {
    const RtMsg* m = d.in->Front();
    if (m == nullptr || !d.out->TryPush(*m)) {
      break;
    }
    d.shutdown_forwarded = m->type == RtMsg::Type::kShutdown;
    d.in->PopFront();
    work = true;
  }
  return work;
}

bool ForwardCanProgress(ForwardDir& d) {
  return !d.shutdown_forwarded && !d.in->EmptyConsumer() && d.out->HasSpaceProducer();
}

void IpBody(ServerContext& ctx, ForwardDir down, ForwardDir up, WdPort wd) {
  bool wd_done = !wd.active();
  while (!(down.shutdown_forwarded && up.shutdown_forwarded && wd_done)) {
    if (ctx.StopRequested()) {
      return;
    }
    bool work = ForwardStep(down);
    work |= ForwardStep(up);
    work |= ServiceWd(wd, &wd_done);
    ctx.Idle(work, [&] {
      return ForwardCanProgress(down) || ForwardCanProgress(up) || WdCanProgress(wd);
    });
  }
}

void PeerBody(ServerContext& ctx, SharedState* sh, ThreadChannel<RtMsg>* data_in,
              ThreadChannel<RtPayload>* pay_in, ThreadChannel<RtMsg>* ack_out, WdPort wd,
              PeerOut* out, TraceRecorder* rec, TrackId track, NameId e2e) {
  bool wd_done = !wd.active();
  // An ack or shutdown echo the full ack ring refused, header only.
  std::optional<RtMsg> pending_ack;
  auto send_ack = [&](RtMsg::Type type, uint32_t seq, uint64_t stream_off) {
    if (!ack_out->TryEmplace(type, seq, stream_off)) {
      pending_ack.emplace(type, seq, stream_off);
    }
  };

  while (!((out->saw_shutdown && !pending_ack) && wd_done)) {
    if (ctx.StopRequested()) {
      return;
    }
    bool work = false;
    if (pending_ack &&
        ack_out->TryEmplace(pending_ack->type, pending_ack->seq, pending_ack->stream_off)) {
      pending_ack.reset();
      work = true;
    }
    while (!pending_ack) {
      // Checked and folded where it lies in the ring; only the header fields
      // the ack needs outlive PopFront.
      const RtMsg* m = data_in->Front();
      if (m == nullptr) {
        break;
      }
      work = true;
      if (m->type == RtMsg::Type::kData) {
        // The app pushed this segment's payload before its header, so it is
        // at the front of pay_in; a missing one counts every byte as wrong.
        if (const RtPayload* p = pay_in->Front()) {
          out->payload_errors += RtSegmentErrors(*m, *p);
          pay_in->PopFront();
        } else {
          out->payload_errors += m->len;
        }
        out->delivered += m->len;
        ++out->chunks;
        // Same FNV-1a fold as StreamIntegrityChecker::OnChunk — the digest
        // is directly comparable to the DES reference.
        out->digest ^= m->len;
        out->digest *= 1099511628211ULL;
        out->latency.Record(RuntimeClock::NsToPs(sh->clock.NowNs() - m->born_ns));
        const uint32_t seq = m->seq;
        if (TraceOn(rec)) {
          rec->AsyncEnd(sh->clock.NowPs(), track, e2e, seq + 1);
        }
        data_in->PopFront();
        send_ack(RtMsg::Type::kAck, seq, out->delivered);
      } else if (m->type == RtMsg::Type::kShutdown) {
        data_in->PopFront();
        out->saw_shutdown = true;
        // Wake the watchdog so it can broadcast the quiesce.
        sh->transfer_done.store(true, std::memory_order_release);
        if (sh->wd_gate != nullptr) {
          sh->wd_gate->Notify();
        }
        send_ack(RtMsg::Type::kShutdown, 0, 0);
        break;
      } else {
        data_in->PopFront();
      }
    }
    work |= ServiceWd(wd, &wd_done);
    ctx.Idle(work, [&] {
      if (!data_in->EmptyConsumer() || WdCanProgress(wd)) {
        return true;
      }
      return pending_ack.has_value() && ack_out->HasSpaceProducer();
    });
  }
}

void UdpBody(ServerContext& ctx, WdPort wd) {
  // The live udp server carries no fig2 traffic; it exists to be watched —
  // an idle server parked on its gate, woken only by heartbeats. Exactly
  // the paper's "dedicated core idling at low power" case.
  bool wd_done = !wd.active();
  while (!wd_done) {
    if (ctx.StopRequested()) {
      return;
    }
    const bool work = ServiceWd(wd, &wd_done);
    ctx.Idle(work, [&] { return WdCanProgress(wd); });
  }
}

void WatchdogBody(ServerContext& ctx, SharedState* sh,
                  std::vector<ThreadChannel<RtMsg>*> out_rings,
                  std::vector<ThreadChannel<RtMsg>*> in_rings, WdOut* wd_out) {
  // Self-clocked heartbeat rounds driven before going quiet, bounded so the
  // liveness traffic cannot starve the transfer on small hosts.
  constexpr uint32_t kMaxRounds = 64;
  const size_t n = out_rings.size();
  std::vector<uint64_t> sent(n, 0);
  std::vector<uint64_t> acked(n, 0);
  std::vector<bool> outstanding(n, false);
  std::vector<bool> shutdown_pushed(n, false);
  uint32_t round = 0;

  auto all_quiesced = [&] {
    for (size_t i = 0; i < n; ++i) {
      if (!shutdown_pushed[i] || acked[i] != sent[i]) {
        return false;
      }
    }
    return true;
  };

  while (true) {
    if (ctx.StopRequested()) {
      return;
    }
    bool work = false;
    for (size_t i = 0; i < n; ++i) {
      while (const RtMsg* m = in_rings[i]->Front()) {
        work = true;
        if (m->type == RtMsg::Type::kHeartbeatAck) {
          ++acked[i];
          outstanding[i] = false;
        }
        in_rings[i]->PopFront();
      }
    }
    // A heartbeat round in flight is finished before the quiesce, and the
    // first round always completes: a transfer that ends within it still
    // gets every server's liveness checked once.
    bool round_in_flight = false;
    for (size_t i = 0; i < n; ++i) {
      round_in_flight = round_in_flight || sent[i] > round;
    }
    const bool heartbeat_owed = round < kMaxRounds && (round == 0 || round_in_flight);
    const bool quiesce =
        sh->transfer_done.load(std::memory_order_acquire) && !heartbeat_owed;
    if (quiesce) {
      for (size_t i = 0; i < n; ++i) {
        if (!shutdown_pushed[i]) {
          if (out_rings[i]->TryEmplace(RtMsg::Type::kShutdown, 0)) {
            shutdown_pushed[i] = true;
            work = true;
          }
        }
      }
      if (all_quiesced()) {
        wd_out->rounds = round;
        return;
      }
    } else if (round < kMaxRounds) {
      // Self-clocked ping-pong: a fresh heartbeat goes out only once the
      // previous one was acked, so liveness checking can never flood a
      // server's ring or starve the data path.
      bool round_complete = true;
      for (size_t i = 0; i < n; ++i) {
        if (!outstanding[i] && sent[i] <= round) {
          if (out_rings[i]->TryEmplace(RtMsg::Type::kHeartbeat, round)) {
            outstanding[i] = true;
            ++sent[i];
            work = true;
          }
        }
        if (sent[i] <= round || outstanding[i]) {
          round_complete = false;
        }
      }
      if (round_complete) {
        ++round;
        work = true;
      }
    }
    ctx.Idle(work, [&] {
      for (size_t i = 0; i < n; ++i) {
        if (!in_rings[i]->EmptyConsumer()) {
          return true;
        }
      }
      return sh->transfer_done.load(std::memory_order_acquire) && !all_quiesced();
    });
  }
}

}  // namespace

LiveStackResult RunLiveFig2(const LiveStackConfig& config) {
  LiveStackResult result;
  SharedState sh;
  sh.cfg = &config;

  using Chan = ThreadChannel<RtMsg>;
  auto make_chan = [](std::string name, size_t cap) {
    return std::make_unique<Chan>(std::move(name), cap);
  };

  // Role order fixes the pin layout (role i -> cpu kFirstCpu + i) and the
  // trace track order; names come from the canonical list both backends
  // share (src/os/stack.h).
  std::vector<std::string> roles;
  if (config.mini) {
    roles = {kStackRoleNames[0], kStackRoleNames[1], kStackRoleNames[3]};  // app, tcp, peer
  } else {
    roles.assign(kStackRoleNames, kStackRoleNames + kStackRoleCount);
  }

  std::vector<std::unique_ptr<Chan>> chans;
  auto add_chan = [&](std::string name, size_t cap) {
    chans.push_back(make_chan(std::move(name), cap));
    return chans.back().get();
  };
  // Data rings come from the canonical topology table (live_wiring.h): the
  // row must exist and be flagged for this stack flavour, so the code cannot
  // instantiate a ring the table (and the checks over it) does not know
  // about.
  auto declared = [&](std::string_view name) -> std::string {
    for (const LiveRingSpec& s : kLiveRingSpecs) {
      if (name == s.name) {
        assert((config.mini ? s.in_mini : s.in_full) &&
               "live ring not declared for this stack flavour in live_wiring.h");
        return s.name;
      }
    }
    assert(false && "live ring missing from kLiveRingSpecs (live_wiring.h)");
    return std::string(name);
  };
  auto add_spec = [&](std::string_view name) {
    return add_chan(declared(name), config.ring_capacity);
  };

  Chan* a2t = add_spec("app/tcp");
  Chan* t2down = add_spec(config.mini ? "tcp/peer" : "tcp/ip");
  Chan* i2p = config.mini ? nullptr : add_spec("ip/peer");
  Chan* p2up = add_spec(config.mini ? "peer/tcp" : "peer/ip");
  Chan* i2t = config.mini ? nullptr : add_spec("ip/tcp");

  // The payload ring holds every segment whose header is in a data ring on
  // the app→peer path, plus the one whose header the app is still pushing,
  // so it never refuses the app and needs no doorbells: the app never waits
  // on it, and the peer reads it only after a header arrived.
  size_t in_flight = a2t->capacity() + t2down->capacity();
  if (i2p != nullptr) {
    in_flight += i2p->capacity();
  }
  ThreadChannel<RtPayload> payload(declared("app/peer"), in_flight + 1);

  // Watchdog rings (full stack only): one heartbeat + one ack ring per
  // watched server, SPSC preserved — the watchdog is sole producer on every
  // wd/<role> ring and sole consumer on every <role>/wd ring. They take the
  // data rings' capacity; the self-clocked rounds never put more than one
  // message in either.
  const std::vector<std::string> watched =
      config.mini
          ? std::vector<std::string>{}
          : std::vector<std::string>(kLiveWatchedRoles, kLiveWatchedRoles + kLiveWatchedRoleCount);
  std::vector<Chan*> wd_tx;  // watchdog -> server
  std::vector<Chan*> wd_rx;  // server -> watchdog
  for (const std::string& w : watched) {
    wd_tx.push_back(add_chan("wd/" + w, config.ring_capacity));
    wd_rx.push_back(add_chan(w + "/wd", config.ring_capacity));
  }
  auto wd_port = [&](size_t watched_idx) {
    WdPort p;
    if (watched_idx < wd_tx.size()) {
      p.in = wd_tx[watched_idx];
      p.out = wd_rx[watched_idx];
    }
    return p;
  };

  // Trace wiring: one single-threaded recorder per server thread.
  std::vector<TraceRecorder*> recs(roles.size(), nullptr);
  std::vector<TrackId> tracks(roles.size(), 0);
  NameId e2e_app = 0;
  NameId e2e_peer = 0;
  if (config.enable_trace) {
    constexpr size_t kTraceCapacity = 1 << 14;  // events per server thread
    for (size_t i = 0; i < roles.size(); ++i) {
      auto rec = std::make_unique<TraceRecorder>(kTraceCapacity);
      tracks[i] = rec->RegisterTrack(roles[i], static_cast<int>(i));
      rec->set_enabled(true);
      recs[i] = rec.get();
      result.recorders.push_back(std::move(rec));
    }
    const size_t app_i = 0;
    const size_t peer_i = config.mini ? 2 : 3;
    e2e_app = recs[app_i]->InternName("seg");
    e2e_peer = recs[peer_i]->InternName("seg");
  }

  RuntimeEngine engine(config.poll);
  PeerOut peer_out;
  WdOut wd_out;

  constexpr int kFirstCpu = 0;
  auto cpu_for = [&](size_t i) {
    return config.pin_threads ? kFirstCpu + static_cast<int>(i) : -1;
  };

  std::vector<ServerContext*> ctxs;
  // Each thread records its SPSC identity token under its role index before
  // its body runs (distinct slots; read only after Join()), so the post-join
  // audit can map each ring's first-touch owners back to role names.
  std::vector<uint64_t> role_tokens(roles.size(), 0);
  size_t next_role = 0;
  auto finish = [&sh, &role_tokens, &next_role](auto body) {
    const size_t idx = next_role++;
    return [&sh, &role_tokens, idx, body = std::move(body)](ServerContext& ctx) {
      role_tokens[idx] = CurrentSpscThreadToken();
      body(ctx);
      sh.exited.fetch_add(1, std::memory_order_release);
    };
  };

  if (config.mini) {
    ctxs.push_back(&engine.Add("app", cpu_for(0), finish([&](ServerContext& ctx) {
      AppBody(ctx, &sh, a2t, &payload, WdPort{}, recs[0], tracks[0], e2e_app);
    })));
    ctxs.push_back(&engine.Add("tcp", cpu_for(1), finish([&](ServerContext& ctx) {
      TcpBody(ctx, &sh, a2t, t2down, p2up, WdPort{});
    })));
    ctxs.push_back(&engine.Add("peer", cpu_for(2), finish([&](ServerContext& ctx) {
      PeerBody(ctx, &sh, t2down, &payload, p2up, WdPort{}, &peer_out, recs[2], tracks[2],
               e2e_peer);
    })));
  } else {
    ctxs.push_back(&engine.Add("app", cpu_for(0), finish([&](ServerContext& ctx) {
      AppBody(ctx, &sh, a2t, &payload, wd_port(0), recs[0], tracks[0], e2e_app);
    })));
    ctxs.push_back(&engine.Add("tcp", cpu_for(1), finish([&](ServerContext& ctx) {
      TcpBody(ctx, &sh, a2t, t2down, i2t, wd_port(1));
    })));
    ctxs.push_back(&engine.Add("ip", cpu_for(2), finish([&](ServerContext& ctx) {
      IpBody(ctx, ForwardDir{t2down, i2p}, ForwardDir{p2up, i2t}, wd_port(2));
    })));
    ctxs.push_back(&engine.Add("peer", cpu_for(3), finish([&](ServerContext& ctx) {
      PeerBody(ctx, &sh, i2p, &payload, p2up, wd_port(3), &peer_out, recs[3], tracks[3],
               e2e_peer);
    })));
    ctxs.push_back(&engine.Add("udp", cpu_for(4), finish([&](ServerContext& ctx) {
      UdpBody(ctx, wd_port(4));
    })));
    ctxs.push_back(&engine.Add("watchdog", cpu_for(5), finish([&](ServerContext& ctx) {
      WatchdogBody(ctx, &sh,
                   std::vector<Chan*>(wd_tx.begin(), wd_tx.end()),
                   std::vector<Chan*>(wd_rx.begin(), wd_rx.end()), &wd_out);
    })));
    sh.wd_gate = &ctxs.back()->gate();
  }

  // Doorbell wiring: consumer/producer gates per ring, by topology.
  auto bind = [&](Chan* c, ServerContext* producer, ServerContext* consumer) {
    if (c == nullptr) {
      return;
    }
    c->BindProducerGate(&producer->gate());
    c->BindConsumerGate(&consumer->gate());
  };
  if (config.mini) {
    bind(a2t, ctxs[0], ctxs[1]);
    bind(t2down, ctxs[1], ctxs[2]);
    bind(p2up, ctxs[2], ctxs[1]);
  } else {
    bind(a2t, ctxs[0], ctxs[1]);
    bind(t2down, ctxs[1], ctxs[2]);
    bind(i2p, ctxs[2], ctxs[3]);
    bind(p2up, ctxs[3], ctxs[2]);
    bind(i2t, ctxs[2], ctxs[1]);
    // Watched order equals role order (app, tcp, ip, peer, udp), so watched
    // index i is context index i; the watchdog is context 5.
    for (size_t i = 0; i < watched.size(); ++i) {
      bind(wd_tx[i], ctxs[5], ctxs[i]);
      bind(wd_rx[i], ctxs[i], ctxs[5]);
    }
  }

  engine.Start();
  const uint64_t t0 = sh.clock.NowNs();

  // Deadline monitor: the quiesce protocol ends the run in the happy path;
  // the deadline turns a protocol bug into a failed result instead of a
  // hung process.
  constexpr uint64_t kTimeoutNs = 30'000'000'000ULL;
  const int n_threads = static_cast<int>(roles.size());
  bool timed_out = false;
  while (sh.exited.load(std::memory_order_acquire) < n_threads) {
    if (sh.clock.NowNs() - t0 > kTimeoutNs) {
      timed_out = true;
      engine.RequestStop();
      break;
    }
    SleepNs(200'000);
  }
  engine.Join();
  result.wall_seconds = static_cast<double>(sh.clock.NowNs() - t0) / 1e9;

  // --- Post-join audit (single-threaded again) ---
  result.delivered = peer_out.delivered;
  result.chunks = peer_out.chunks;
  result.digest = peer_out.digest;
  result.payload_errors = peer_out.payload_errors;
  result.heartbeat_rounds = wd_out.rounds;
  result.latency = peer_out.latency;
  result.completed =
      !timed_out && peer_out.saw_shutdown && result.delivered == config.transfer_bytes;
  result.threads = engine.Stats();

  // Ring audit and observed wiring, over the header rings and the payload
  // ring alike, sorted by name.
  auto role_of = [&](uint64_t token) -> std::string {
    for (size_t i = 0; i < roles.size(); ++i) {
      if (token != 0 && role_tokens[i] == token) {
        return roles[i];
      }
    }
    return std::string();
  };
  std::vector<std::string> wiring;
  result.conservation_ok = true;
  auto audit = [&](const auto& c) {
    LiveRingStats rs;
    rs.name = c.name();
    rs.pushes = c.pushes();
    rs.pops = c.pops();
    rs.full_retries = c.full_retries();
    rs.residue = c.Residue();
    rs.imposters = c.imposters();
    if (rs.pushes != rs.pops || rs.residue != 0) {
      result.conservation_ok = false;
    }
    result.rings.push_back(std::move(rs));
    wiring.push_back("ring " + c.name() + " consumer=" + role_of(c.consumer_token()) +
                     " producers=" + role_of(c.producer_token()) + "\n");
  };
  for (const auto& c : chans) {
    audit(*c);
  }
  audit(payload);
  std::sort(wiring.begin(), wiring.end());
  for (const std::string& line : wiring) {
    result.wiring += line;
  }
  return result;
}

void FoldIntoChecker(const LiveStackResult& result, ChannelChecker* checker) {
  if (checker == nullptr) {
    return;
  }
  for (const LiveRingStats& r : result.rings) {
    checker->OnLiveRingSummary(r.name, r.pushes, r.pops, r.imposters);
  }
}

}  // namespace newtos

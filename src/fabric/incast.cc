#include "src/fabric/incast.h"

#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "src/sim/random.h"

namespace newtos {
namespace {

// Pre-sizes every lane's event queue and packet pool, so steady-state
// traffic never regrows either.
void ReserveLanes(LaneEngine& engine) {
  constexpr size_t kEventReserve = 8192;   // per lane
  constexpr size_t kPacketReserve = 8192;  // per lane
  for (int i = 0; i < engine.lanes(); ++i) {
    engine.lane(i).sim().ReserveEvents(kEventReserve);
    engine.lane(i).pool().Reserve(kPacketReserve);
  }
}

}  // namespace

SwitchParams IncastFabricDefaults() {
  SwitchParams p;
  p.port_rate_gbps = 10.0;
  p.fabric_gbps = 0.0;  // non-blocking backplane; the egress port is the choke
  p.switching_latency = 2 * kMicrosecond;
  p.port_propagation = 5 * kMicrosecond;
  p.egress_queue_slots = 64;
  return p;
}

Ipv4Addr IncastSutAddr() { return Ipv4(10, 0, 0, 1); }

Ipv4Addr IncastClientAddr(int i) {
  assert(i >= 0 && i < 255 * 256);
  return Ipv4(10, 0, static_cast<uint8_t>(1 + i / 256), static_cast<uint8_t>(i % 256));
}

int IncastClientIndex(Ipv4Addr a) {
  return (static_cast<int>((a >> 8) & 0xff) - 1) * 256 + static_cast<int>(a & 0xff);
}

int IncastLaneOfClient(int client, int lanes) {
  if (lanes <= 1) {
    return 0;
  }
  return 1 + client % (lanes - 1);
}

std::string IncastLanesError(int clients, long lanes) {
  if (lanes < 1) {
    return "lane count must be at least 1";
  }
  if (lanes > kMaxIncastLanes) {
    return "lane count " + std::to_string(lanes) + " exceeds the limit of " +
           std::to_string(kMaxIncastLanes);
  }
  if (lanes > clients + 1) {
    return "lane count " + std::to_string(lanes) + " exceeds clients + 1 = " +
           std::to_string(clients + 1) + "; a lane past that holds no host";
  }
  return "";
}

// --- UdpIncastBed ---------------------------------------------------------

struct UdpIncastBed::Client {
  std::unique_ptr<Nic> nic;
  std::unique_ptr<PeerHost> peer;
  std::unique_ptr<UdpPeerFlood> flood;
  int lane = 0;
};

UdpIncastBed::UdpIncastBed(const UdpIncastOptions& options)
    : options_(options), engine_(options.topo.lanes), fabric_(options.topo.fabric) {
  const IncastOptions& topo = options_.topo;
  ReserveLanes(engine_);

  Simulation& sut_sim = engine_.lane(0).sim();
  // lint:allow(heap-make): one-time testbed construction
  sut_nic_ = std::make_unique<Nic>(&sut_sim, "sut/nic0", topo.client_nic);
  fabric_.AttachNic(sut_nic_.get(), &sut_sim, IncastSutAddr());
  // lint:allow(heap-make): one-time testbed construction
  sut_ = std::make_unique<PeerHost>(&sut_sim, IncastSutAddr(), sut_nic_.get());

  digest_per_client_.resize(static_cast<size_t>(topo.n_clients));
  delivered_per_client_.resize(static_cast<size_t>(topo.n_clients), 0);
  Simulation* sim = &sut_sim;
  sut_->udp().Bind(kUdpFloodPort, [this, sim](const PacketPtr& p) {
    const size_t idx = static_cast<size_t>(IncastClientIndex(p->ip.src));
    StreamDigest& d = digest_per_client_[idx];
    d.Fold(static_cast<uint64_t>(sim->Now()));
    d.Fold(p->app_tag);
    d.Fold(p->payload_bytes);
    ++delivered_per_client_[idx];
    ++delivered_total_;
    window_.Add(1, p->payload_bytes);
  });

  clients_.reserve(static_cast<size_t>(topo.n_clients));
  for (int i = 0; i < topo.n_clients; ++i) {
    // lint:allow(heap-make): one-time testbed construction
    auto c = std::make_unique<Client>();
    c->lane = IncastLaneOfClient(i, topo.lanes);
    Simulation& sim_i = engine_.lane(c->lane).sim();
    // lint:allow(heap-make): one-time testbed construction
    c->nic = std::make_unique<Nic>(&sim_i, "client" + std::to_string(i) + "/nic0",
                                   topo.client_nic);
    fabric_.AttachNic(c->nic.get(), &sim_i, IncastClientAddr(i));
    // lint:allow(heap-make): one-time testbed construction
    c->peer = std::make_unique<PeerHost>(&sim_i, IncastClientAddr(i), c->nic.get());

    UdpPeerFlood::Params fp;
    fp.sut = IncastSutAddr();
    fp.payload_bytes = options_.payload_bytes;
    fp.packets_per_sec = options_.pps_per_client;
    fp.poisson = options_.poisson;
    // Host ids: 0 is the SUT, clients are 1..N. Each client's stream is a
    // pure function of (seed, host id) — stable under renumbering of lanes.
    fp.seed = Rng::HostSeed(topo.seed, static_cast<uint64_t>(i) + 1);
    // lint:allow(heap-make): one-time testbed construction
    c->flood = std::make_unique<UdpPeerFlood>(c->peer.get(), fp);
    clients_.push_back(std::move(c));
  }

  engine_.SetLookahead(fabric_.Lookahead());
  engine_.SetBarrierFlush([this] { fabric_.Flush(); });
}

UdpIncastBed::~UdpIncastBed() = default;

void UdpIncastBed::Start() {
  for (auto& c : clients_) {
    // The first datagram fires inline on this (stopped-lanes) thread; bind
    // the client's lane pool so its packet comes from — and recycles to —
    // the pool the lane will use for the rest of the stream.
    PacketPool::ScopedUse use(&engine_.lane(c->lane).pool());
    c->flood->Start();
  }
}

uint64_t UdpIncastBed::sent() const {
  uint64_t total = 0;
  for (const auto& c : clients_) {
    total += c->flood->sent();
  }
  return total;
}

uint64_t UdpIncastBed::Digest() const {
  StreamDigest total;
  for (const StreamDigest& d : digest_per_client_) {
    total.Fold(d.value());
  }
  return total.value();
}

// --- TcpIncastBed ---------------------------------------------------------

struct TcpIncastBed::Client {
  std::unique_ptr<Nic> nic;
  std::unique_ptr<PeerHost> peer;
  SimTime start_at = 0;
  uint64_t burst_bytes = 0;
  bool established = false;

  void Connect(Ipv4Addr sut) {
    TcpHost::AppHooks hooks;
    hooks.on_established = [this](TcpConnection* conn) {
      established = true;
      // Two bursts in flight (double buffering), refilled on drain.
      conn->Send(burst_bytes);
      conn->Send(burst_bytes);
    };
    hooks.on_drained = [this](TcpConnection* conn) { conn->Send(burst_bytes); };
    peer->tcp().Connect(sut, kIperfPort, hooks, peer->tcp_params());
  }
};

TcpIncastBed::TcpIncastBed(const TcpIncastOptions& options)
    : options_(options), engine_(options.topo.lanes), fabric_(options.topo.fabric) {
  const IncastOptions& topo = options_.topo;
  ReserveLanes(engine_);

  Simulation& sut_sim = engine_.lane(0).sim();
  {
    // The stack's construction-time reserve must land in lane 0's pool, not
    // the process default.
    PacketPool::ScopedUse use(&engine_.lane(0).pool());
    // lint:allow(heap-make): one-time testbed construction
    machine_ = std::make_unique<Machine>(&sut_sim, "sut", options_.machine);
    fabric_.AttachNic(machine_->nic(), &sut_sim, options_.stack.addr);
    // lint:allow(heap-make): one-time testbed construction
    stack_ = std::make_unique<MultiserverStack>(&sut_sim, machine_.get(), options_.stack);
    stack_->BindDefaultLayout();
    DedicatedSlowPlan(*stack_, options_.system_freq, options_.app_freq).Apply(*machine_);
    api_ = stack_->CreateApp("incast-sink", machine_->core(0));
  }

  Simulation* sim = &sut_sim;
  api_->SetEventHandler([this, sim](const Msg& m) {
    if (m.type == MsgType::kEvtData) {
      sut_digest_.Fold(static_cast<uint64_t>(sim->Now()));
      sut_digest_.Fold(m.handle);
      sut_digest_.Fold(m.value);
      total_bytes_ += m.value;
      window_.Add(1, m.value);
    }
  });

  clients_.reserve(static_cast<size_t>(topo.n_clients));
  for (int i = 0; i < topo.n_clients; ++i) {
    // lint:allow(heap-make): one-time testbed construction
    auto c = std::make_unique<Client>();
    const int lane = IncastLaneOfClient(i, topo.lanes);
    Simulation& sim_i = engine_.lane(lane).sim();
    // lint:allow(heap-make): one-time testbed construction
    c->nic = std::make_unique<Nic>(&sim_i, "client" + std::to_string(i) + "/nic0",
                                   topo.client_nic);
    fabric_.AttachNic(c->nic.get(), &sim_i, IncastClientAddr(i));
    // lint:allow(heap-make): one-time testbed construction
    c->peer = std::make_unique<PeerHost>(&sim_i, IncastClientAddr(i), c->nic.get(),
                                         options_.stack.tcp_params);
    c->burst_bytes = options_.burst_bytes;
    // Connect offsets come from the per-host RNG stream: every client's
    // onset is a function of (seed, host id) alone.
    Rng rng = Rng::ForHost(topo.seed, static_cast<uint64_t>(i) + 1);
    c->start_at = options_.start_jitter > 0
                      ? static_cast<SimTime>(rng.Next() %
                                             static_cast<uint64_t>(options_.start_jitter))
                      : 0;
    clients_.push_back(std::move(c));
  }

  engine_.SetLookahead(fabric_.Lookahead());
  engine_.SetBarrierFlush([this] { fabric_.Flush(); });
}

TcpIncastBed::~TcpIncastBed() = default;

void TcpIncastBed::Start() {
  api_->Listen(kIperfPort);
  const Ipv4Addr sut = options_.stack.addr;
  for (auto& c : clients_) {
    Client* cp = c.get();
    // Scheduled as a lane event so the SYN (and everything after) is built
    // on the client's own lane thread, from its own pool.
    cp->peer->sim()->Schedule(cp->start_at, [cp, sut] { cp->Connect(sut); });
  }
}

int TcpIncastBed::established() const {
  int n = 0;
  for (const auto& c : clients_) {
    n += c->established ? 1 : 0;
  }
  return n;
}

TcpStats TcpIncastBed::AggregateClientStats() const {
  TcpStats total;
  for (const auto& c : clients_) {  // clients_ index order == host-id order
    for (const TcpConnection* conn : c->peer->tcp().Connections()) {
      total += conn->stats();
    }
  }
  return total;
}

LatencyHistogram TcpIncastBed::ClientRttHistogram() const {
  LatencyHistogram hist;
  for (const auto& c : clients_) {  // host-id order: deterministic fold
    for (const TcpConnection* conn : c->peer->tcp().Connections()) {
      if (conn->srtt() > 0) {
        hist.Record(conn->srtt());
      }
    }
  }
  return hist;
}

}  // namespace newtos

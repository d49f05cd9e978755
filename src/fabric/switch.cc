#include "src/fabric/switch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace newtos {

// Adapter the NIC calls at the adapter edge; routes into the owning switch.
struct Switch::PortTap : NicPort {
  Switch* sw = nullptr;
  int port = 0;

  void FrameFromNic(PacketPtr p, SimTime now) override { sw->Ingress(port, std::move(p), now); }
};

Switch::Switch(const SwitchParams& params) : params_(params) {
  assert(params_.port_rate_gbps > 0.0);
  assert(params_.switching_latency > 0);
}

Switch::~Switch() = default;

int Switch::AttachNic(Nic* nic, Simulation* sim, Ipv4Addr addr, SimTime propagation) {
  const int port = static_cast<int>(ports_.size());
  // lint:allow(heap-make): one-time wiring at testbed construction, not per-frame
  ports_.push_back(std::make_unique<Port>());
  Port& p = *ports_.back();
  p.nic = nic;
  p.sim = sim;
  p.propagation = propagation >= 0 ? propagation : params_.port_propagation;
  p.egress_busy.reserve(params_.egress_queue_slots + 1);
  // Ports attached from one Simulation share its lane's ingress log.
  size_t sim_ports = 1;
  for (int q = 0; q < port; ++q) {
    if (ports_[static_cast<size_t>(q)]->sim == sim) {
      p.staging = ports_[static_cast<size_t>(q)]->staging;
      ++sim_ports;
    }
  }
  if (p.staging == nullptr) {
    // A heap object per log gives each its own cache line and an address
    // that stays put as more lanes attach.
    // lint:allow(heap-make): one-time wiring at testbed construction, one log per source lane
    stagings_.push_back(std::make_unique<Staging>());
    p.staging = stagings_.back().get();
  }
  // One lookahead window of ingress at far beyond any port's line rate (64
  // frames per port), so bursty arrivals never regrow a log mid-run
  // (allocation-free Flush).
  p.staging->frames.reserve(64 * sim_ports);
  // lint:allow(heap-make): one-time wiring at testbed construction, not per-frame
  p.tap = std::make_unique<PortTap>();
  p.tap->sw = this;
  p.tap->port = port;
  nic->AttachPort(p.tap.get());
  merge_scratch_.reserve(ports_.size() * 64);
  min_propagation_ = port == 0 ? p.propagation : std::min(min_propagation_, p.propagation);
  BindAddress(addr, port);
  return port;
}

void Switch::BindAddress(Ipv4Addr addr, int port) {
  assert(port >= 0 && port < num_ports());
  routes_[addr] = port;
  route_cache_port_ = -1;  // a rebind may shadow the cached route
}

SimTime Switch::EgressSerializationTime(uint32_t frame_bytes) const {
  const double bits = static_cast<double>(frame_bytes + params_.frame_overhead_bytes) * 8.0;
  const double seconds = bits / (params_.port_rate_gbps * 1e9);
  return static_cast<SimTime>(std::llround(seconds * static_cast<double>(kSecond)));
}

Switch::PortStats Switch::port_stats(int port) const {
  const Port& p = *ports_[static_cast<size_t>(port)];
  PortStats s;
  s.in_frames = p.in_frames;
  s.in_bytes = p.in_bytes;
  s.out_frames = p.out_frames;
  s.out_bytes = p.out_bytes;
  s.egress_drops = p.egress_drops;
  return s;
}

void Switch::Ingress(int port, PacketPtr p, SimTime now) {
  Port& in = *ports_[static_cast<size_t>(port)];
  Staging& log = *in.staging;
  if (log.flushed) {
    // Flush() has routed this log: delivered packets were moved out, and
    // dropping the rest here frees them into this lane's own pool.
    log.frames.clear();
    log.flushed = false;
  }
  const uint32_t bytes = p->FrameBytes();
  in.in_frames++;
  in.in_bytes += bytes;
  log.frames.push_back(
      StagedFrame{now, p->ip.dst, bytes, static_cast<uint32_t>(port), std::move(p)});
}

void Switch::Flush() {
  // Chronological merge over the ingress logs (each is in ingress-time
  // order, and holds each of its ports' frames in FIFO order). Simultaneous
  // arrivals on different ports are granted in rotating round-robin order
  // starting at rr_next_ — the arbitration real input stages implement, so
  // two synchronized equal senders split a contended egress port evenly
  // instead of phase-locking into port-id priority. The merge consults only
  // ingress timestamps, port ids and the rotation cursor (itself a function
  // of the delivery sequence), so the resulting total order is independent
  // of lane count and of which log a port's frames sit in. The determinism
  // hinge.
  //
  // Mechanically: gather (when, port, idx) refs, sort once, then walk tie
  // groups. Poisson-spread traffic has singleton groups almost always, so
  // the hot path is one sort comparison + one DeliverOne per frame instead
  // of a per-frame min-scan over every port (which profiled as the single
  // largest cost in the whole incast run).
  const size_t n_ports = ports_.size();
  merge_scratch_.clear();
  for (size_t g = 0; g < stagings_.size(); ++g) {
    Staging& log = *stagings_[g];
    if (log.flushed || log.frames.empty()) {
      continue;  // nothing new since the last Flush
    }
    const std::vector<StagedFrame>& frames = log.frames;
    for (size_t i = 0; i < frames.size(); ++i) {
      merge_scratch_.push_back(MergeRef{frames[i].when, frames[i].port,
                                        static_cast<uint32_t>(i), static_cast<uint32_t>(g)});
    }
    // Left for the owning lane to clear (see Ingress): dropped frames' packets
    // are released there, not on this thread.
    log.flushed = true;
  }
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const MergeRef& a, const MergeRef& b) {
              if (a.when != b.when) {
                return a.when < b.when;
              }
              if (a.port != b.port) {
                return a.port < b.port;
              }
              return a.idx < b.idx;
            });
  const size_t n = merge_scratch_.size();
  size_t i = 0;
  while (i < n) {
    size_t j = i + 1;
    while (j < n && merge_scratch_[j].when == merge_scratch_[i].when) {
      ++j;
    }
    if (j == i + 1 || merge_scratch_[i].port == merge_scratch_[j - 1].port) {
      // Single frame, or several from the same port (FIFO, no arbitration).
      for (size_t k = i; k < j; ++k) {
        const MergeRef& r = merge_scratch_[k];
        DeliverOne(stagings_[r.group]->frames[r.idx]);
      }
      rr_next_ = (merge_scratch_[i].port + 1) % n_ports;
    } else {
      // Multi-port tie: grant ports in rotation order from rr_next_, then
      // advance the cursor one past the group's FIRST winner. Advancing by
      // the first (not last) winner is what alternates grant order between
      // synchronized senders: with the cursor placed just past the last
      // grant it would sweep over the idle ports and land on the
      // lowest-numbered sender every group, a priority lock-in that
      // starves the other sender whenever the egress queue frees exactly
      // one slot per group.
      size_t first_winner = n_ports;
      size_t granted = 0;
      for (size_t off = 0; off < n_ports && granted < j - i; ++off) {
        const size_t pi = (rr_next_ + off) % n_ports;
        for (size_t k = i; k < j; ++k) {
          const MergeRef& r = merge_scratch_[k];
          if (r.port == pi) {
            DeliverOne(stagings_[r.group]->frames[r.idx]);
            ++granted;
            if (first_winner == n_ports) {
              first_winner = pi;
            }
          }
        }
      }
      rr_next_ = (first_winner + 1) % n_ports;
    }
    i = j;
  }
}

void Switch::DeliverOne(StagedFrame& f) {
  if (f.dst != route_cache_addr_ || route_cache_port_ < 0) {
    const auto route = routes_.find(f.dst);
    if (route == routes_.end()) {
      ++stats_.unrouted_drops;
      return;
    }
    route_cache_addr_ = f.dst;
    route_cache_port_ = route->second;
  }
  Port& out = *ports_[static_cast<size_t>(route_cache_port_)];

  // Shared backplane: one serialization cursor for the whole fabric.
  SimTime fabric_done = f.when;
  if (params_.fabric_gbps > 0.0) {
    const double bits = static_cast<double>(f.frame_bytes + params_.frame_overhead_bytes) * 8.0;
    const SimTime ser =
        static_cast<SimTime>(std::llround(bits / (params_.fabric_gbps * 1e9) *
                                          static_cast<double>(kSecond)));
    const SimTime start = std::max(f.when, fabric_free_at_);
    fabric_done = start + ser;
    fabric_free_at_ = fabric_done;
  }

  const SimTime at_egress = fabric_done + params_.switching_latency;

  // Egress port: bounded queue of frames awaiting the egress wire. The ring
  // holds each queued frame's wire-completion time; entries whose
  // completion precedes this frame's arrival have left the buffer.
  while (!out.egress_busy.empty() && out.egress_busy.front() <= at_egress) {
    out.egress_busy.pop_front();
  }
  if (out.egress_busy.size() >= params_.egress_queue_slots) {
    ++out.egress_drops;
    return;
  }
  if (f.frame_bytes != ser_cache_bytes_) {
    ser_cache_bytes_ = f.frame_bytes;
    ser_cache_time_ = EgressSerializationTime(ser_cache_bytes_);
  }
  const SimTime start = std::max(at_egress, out.egress_free_at);
  const SimTime done = start + ser_cache_time_;
  out.egress_free_at = done;
  out.egress_busy.push_back(done);

  ++stats_.routed_frames;
  ++out.out_frames;
  out.out_bytes += f.frame_bytes;

  const SimTime arrival = done + out.propagation;
  Nic* nic = out.nic;
  out.sim->ScheduleAt(arrival, [nic, p = std::move(f.packet)]() mutable {
    nic->DeliverFromWire(std::move(p));
  });
}

}  // namespace newtos

// Switch: the multi-host fabric that replaces the point-to-point link.
//
// Dozens of hosts plug their NICs into numbered ports; frames route by
// destination IP. The model is a shared-backplane, output-queued switch:
//
//   NIC serialization + TX DMA        (source host's lane, in the NIC)
//     -> ingress log                  (Ingress(); lock-free, one per lane)
//     -> shared fabric bandwidth      (one serialization cursor for the
//                                      whole backplane; 0 = non-blocking)
//     -> fixed switching latency
//     -> egress port serialization    (per-port rate + bounded queue;
//                                      overflow = incast's tail drop)
//     -> cable propagation -> RX DMA  (destination host's lane, in the NIC)
//
// Determinism and parallelism come from the same property: the switch never
// runs inside a lane's event loop. Frames entering during a lookahead
// window are appended to the ingress log of their source Simulation (every
// port attached from one sim shares it), together with the destination and
// wire size the lane reads while the packet is still hot in its cache.
// Flush() — single-threaded, at window barriers — reads only those few
// logs and merges them chronologically, breaking ingress ties by rotating
// round-robin arbitration: a total order that does not depend on how hosts
// are partitioned into lanes. Arrival events land in each destination's own
// simulation at times >= window end, which is exactly the
// conservative-lookahead contract LaneEngine (lane.h) runs under. One lane
// or eight, the computed timeline is identical.
//
// Frames the egress queue tail-drops are never touched on the flush
// thread: Flush() marks each log it drained, and the owning lane's next
// Ingress clears it, so a dropped packet returns to the pool of the lane
// that allocated it. Only delivered frames cross lanes.
//
// Lifetime: the frames of the last window stay in the logs until the next
// Ingress on their lane or ~Switch. A Switch must therefore be destroyed
// before the PacketPools its lanes draw from (declare the LaneEngine, or
// the pools, before the Switch).
//
// All time-consuming stages are cursor-based (busy-until scalars and a ring
// of queued-completion times per port), so Flush() is allocation-free once
// the logs reach their high-water mark.

#ifndef SRC_FABRIC_SWITCH_H_
#define SRC_FABRIC_SWITCH_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/hw/nic.h"
#include "src/net/packet.h"
#include "src/sim/ring_deque.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace newtos {

struct SwitchParams {
  // Egress serialization rate of every port (the SUT's RX bottleneck under
  // incast). Frames also pay Ethernet preamble/FCS/IFG on the egress wire.
  double port_rate_gbps = 10.0;
  // Shared backplane bandwidth; 0 means non-blocking (no shared cursor).
  double fabric_gbps = 0.0;
  // Fixed ingress->egress pipeline latency. Together with the minimum port
  // propagation this lower-bounds every cross-port delivery, which is what
  // makes conservative lane parallelism possible: Lookahead() below.
  SimTime switching_latency = 1 * kMicrosecond;
  // Cable delay switch<->NIC (per direction); per-port override on Attach.
  SimTime port_propagation = 2 * kMicrosecond;
  // Per-port egress buffer in frames. The classic incast failure mode:
  // N synchronized senders overflow the one port facing the receiver.
  size_t egress_queue_slots = 64;
  uint32_t frame_overhead_bytes = 24;  // preamble(8) + FCS(4) + IFG(12)
};

class Switch {
 public:
  struct PortStats {
    uint64_t in_frames = 0;  // frames this port's NIC handed to the fabric
    uint64_t in_bytes = 0;
    uint64_t out_frames = 0;  // frames delivered out of this port
    uint64_t out_bytes = 0;
    uint64_t egress_drops = 0;  // egress queue full (incast tail drop)
  };

  struct Stats {
    uint64_t routed_frames = 0;
    uint64_t unrouted_drops = 0;  // destination IP bound to no port
  };

  explicit Switch(const SwitchParams& params);
  ~Switch();

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  // Plugs `nic` into the next free port and routes `addr` to it. `sim` is
  // the simulation that owns the NIC (its lane); all delivery events for
  // this port are scheduled there. `propagation` < 0 uses the switch-wide
  // default. Returns the port index.
  int AttachNic(Nic* nic, Simulation* sim, Ipv4Addr addr, SimTime propagation = -1);

  // Routes an additional address out of `port` (multi-homed hosts).
  void BindAddress(Ipv4Addr addr, int port);

  // The conservative lookahead LaneEngine may run with: no frame handed to
  // the fabric at time t can become host-visible anywhere before
  // t + Lookahead(). Valid once at least one port is attached.
  SimTime Lookahead() const { return params_.switching_latency + min_propagation_; }

  // Drains every lane's ingress log, arbitrates the backplane
  // chronologically (round-robin across ties) and schedules arrival events
  // in the destination lanes. Must be called single-threaded while every
  // lane is stopped — LaneEngine invokes it at each window barrier. Safe to
  // call when idle.
  void Flush();

  int num_ports() const { return static_cast<int>(ports_.size()); }
  const SwitchParams& params() const { return params_; }
  const Stats& stats() const { return stats_; }
  PortStats port_stats(int port) const;

  // Time to put one frame of `frame_bytes` on an egress wire at port rate.
  SimTime EgressSerializationTime(uint32_t frame_bytes) const;

 private:
  // A frame staged by its source lane, awaiting Flush(). The lane fills in
  // `dst` and `frame_bytes` at ingress, so Flush() routes and sizes a frame
  // without dereferencing its packet, and never touches a dropped one.
  struct StagedFrame {
    SimTime when = 0;  // fabric-entry time (frame fully off the source NIC)
    Ipv4Addr dst = 0;
    uint32_t frame_bytes = 0;
    uint32_t port = 0;  // ingress port
    PacketPtr packet;   // moved into the arrival event if delivered
  };

  // The ingress log of one source Simulation (lane), shared by every port
  // attached from it. Appended only by that lane's thread during a window,
  // so it is in ingress-time order and each port's frames in FIFO order.
  // Flush() reads it at the barrier (the barrier's synchronization is the
  // fence) and sets `flushed`; the lane's next Ingress clears it, releasing
  // dropped packets on the lane that allocated them. Its own cache line(s).
  struct alignas(64) Staging {
    std::vector<StagedFrame> frames;
    bool flushed = false;  // drained by Flush(); clear before appending
  };

  // NicPort adapter handed to the attached NIC; stable address per port.
  struct PortTap;

  struct Port {
    // Wiring: set by AttachNic, read-only afterwards.
    Nic* nic = nullptr;
    Simulation* sim = nullptr;
    Staging* staging = nullptr;  // the log of `sim`
    SimTime propagation = 0;
    std::unique_ptr<PortTap> tap;
    // Written by this port's lane in Ingress(); kept off the line Flush()
    // writes so the lane and the flush thread never share one.
    alignas(64) uint64_t in_frames = 0;
    uint64_t in_bytes = 0;
    // Flush-side egress state. egress_busy holds completion times of frames
    // occupying the egress queue (see DeliverOne()).
    alignas(64) RingDeque<SimTime> egress_busy;
    SimTime egress_free_at = 0;
    uint64_t out_frames = 0;
    uint64_t out_bytes = 0;
    uint64_t egress_drops = 0;
  };

  // A (when, port, index-within-log) reference into ingress log `group`;
  // Flush() sorts these instead of min-scanning every port per frame.
  struct MergeRef {
    SimTime when;
    uint32_t port;
    uint32_t idx;
    uint32_t group;
  };

  void Ingress(int port, PacketPtr p, SimTime now);
  void DeliverOne(StagedFrame& f);

  SwitchParams params_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<std::unique_ptr<Staging>> stagings_;  // one per source sim
  std::unordered_map<Ipv4Addr, int> routes_;
  SimTime min_propagation_ = 0;
  SimTime fabric_free_at_ = 0;      // shared-backplane serialization cursor
  size_t rr_next_ = 0;              // rotating tie-arbitration cursor
  std::vector<MergeRef> merge_scratch_;  // Flush() working set, reused
  // One-entry route cache: incast traffic converges on one destination, so
  // this short-circuits the hash lookup on nearly every frame. Invalidated
  // by BindAddress. Flush-side state only -> lane-count invariant.
  Ipv4Addr route_cache_addr_ = 0;
  int route_cache_port_ = -1;
  // One-entry serialization-time cache (bulk flows use one frame size).
  uint32_t ser_cache_bytes_ = 0xffffffff;
  SimTime ser_cache_time_ = 0;
  Stats stats_;
};

}  // namespace newtos

#endif  // SRC_FABRIC_SWITCH_H_

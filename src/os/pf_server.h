// Packet-filter server: evaluates the rule chain on inbound packets and
// demuxes survivors to the L4 servers.
//
// The per-packet cost is base + per_rule × rules-evaluated, so the length of
// the configured chain directly loads this stage — one of the knobs for
// moving the pipeline's bottleneck around in the experiments.

#ifndef SRC_OS_PF_SERVER_H_
#define SRC_OS_PF_SERVER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/net/filter.h"
#include "src/os/costs.h"
#include "src/os/server.h"

namespace newtos {

class PfServer : public Server {
 public:
  PfServer(Simulation* sim, PacketFilter filter, const PfCosts& costs, size_t chan_capacity,
           const ChannelCostModel& chan_cost);

  // L4 demux targets: TCP shards by symmetric flow hash, or UDP.
  void set_l4_downstreams(std::vector<Chan*> tcp_rx_shards, Chan* udp_rx) {
    l4_ = {std::move(tcp_rx_shards), udp_rx};
  }

  Chan* rx_in() { return rx_in_; }
  const PacketFilter& filter() const { return filter_; }
  void ReplaceFilter(PacketFilter filter) { filter_ = std::move(filter); }

  uint64_t accepted() const { return accepted_; }
  uint64_t dropped() const { return dropped_; }

 protected:
  Cycles CostFor(const Msg& msg) override;
  void Handle(const Msg& msg) override;

 private:
  PacketFilter filter_;
  PfCosts costs_;
  Chan* rx_in_ = nullptr;
  L4Demux l4_;
  uint64_t accepted_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace newtos

#endif  // SRC_OS_PF_SERVER_H_

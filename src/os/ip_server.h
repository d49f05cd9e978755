// IP server: validates and routes packets between the driver and L4 stages.
//
// RX: driver -> IP -> (PF or L4 demux). TX: TCP/UDP -> IP -> driver. The
// server is stateless apart from counters, so its microreboot is transparent
// except for the messages that were in its queues.

#ifndef SRC_OS_IP_SERVER_H_
#define SRC_OS_IP_SERVER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/os/costs.h"
#include "src/os/server.h"

namespace newtos {

class IpServer : public Server {
 public:
  IpServer(Simulation* sim, Ipv4Addr local_addr, const IpCosts& costs, size_t chan_capacity,
           const ChannelCostModel& chan_cost);

  // RX-side downstream: where accepted inbound packets go (the PF server).
  // When unset, the IP server demuxes straight to the L4 channels below.
  void set_rx_downstream(Chan* pf) { rx_downstream_ = pf; }

  // L4 demux targets, used when no PF stage is interposed. TCP may be
  // sharded: flows spread across the channels by symmetric flow hash.
  void set_l4_downstreams(std::vector<Chan*> tcp_rx_shards, Chan* udp_rx) {
    l4_ = {std::move(tcp_rx_shards), udp_rx};
  }
  // TX-side downstream: the driver's TX channel.
  void set_tx_downstream(Chan* driver_tx) { tx_downstream_ = driver_tx; }

  Chan* rx_in() { return rx_in_; }
  Chan* tx_in() { return tx_in_; }

  uint64_t rx_forwarded() const { return rx_forwarded_; }
  uint64_t icmp_echoes_answered() const { return icmp_echoes_answered_; }
  uint64_t tx_forwarded() const { return tx_forwarded_; }
  uint64_t dropped_not_local() const { return dropped_not_local_; }
  uint64_t dropped_ttl() const { return dropped_ttl_; }
  // Inbound packets discarded because the IPv4 header checksum would not
  // verify (Packet::corrupt carries kCorruptIp — a wire bit flip in the
  // header). Verification is modeled as free: NICs checksum in hardware.
  uint64_t rx_checksum_drops() const { return rx_checksum_drops_; }

 protected:
  Cycles CostFor(const Msg& msg) override;
  void Handle(const Msg& msg) override;

 private:
  Ipv4Addr local_addr_;
  IpCosts costs_;
  Chan* rx_in_ = nullptr;
  Chan* tx_in_ = nullptr;
  Chan* rx_downstream_ = nullptr;
  Chan* tx_downstream_ = nullptr;
  L4Demux l4_;
  uint64_t rx_forwarded_ = 0;
  uint64_t tx_forwarded_ = 0;
  uint64_t icmp_echoes_answered_ = 0;
  uint64_t dropped_not_local_ = 0;
  uint64_t dropped_ttl_ = 0;
  uint64_t rx_checksum_drops_ = 0;
};

}  // namespace newtos

#endif  // SRC_OS_IP_SERVER_H_

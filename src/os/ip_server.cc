#include "src/os/ip_server.h"

#include <cassert>

namespace newtos {

IpServer::IpServer(Simulation* sim, Ipv4Addr local_addr, const IpCosts& costs,
                   size_t chan_capacity, const ChannelCostModel& chan_cost)
    : Server(sim, "ip"), local_addr_(local_addr), costs_(costs) {
  rx_in_ = CreateInput("rx", chan_capacity, chan_cost);
  tx_in_ = CreateInput("tx", chan_capacity, chan_cost);
}

Cycles IpServer::CostFor(const Msg& msg) {
  if (msg.type == MsgType::kPacketRx && msg.packet &&
      msg.packet->ip.proto == IpProto::kIcmp) {
    return costs_.per_packet + costs_.icmp_echo;
  }
  return costs_.per_packet;
}

void IpServer::Handle(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx: {
      const Packet& p = *msg.packet;
      if ((p.corrupt & kCorruptIp) != 0) {
        ++rx_checksum_drops_;  // header checksum mismatch: drop before routing
        return;
      }
      if (p.ip.dst != local_addr_) {
        ++dropped_not_local_;  // we are a host, not a router
        return;
      }
      if (p.ip.ttl == 0) {
        ++dropped_ttl_;
        return;
      }
      if (p.ip.proto == IpProto::kIcmp) {
        // ICMP terminates at the IP layer: answer echo requests in place.
        if (p.icmp.type == kIcmpEchoRequest && tx_downstream_ != nullptr) {
          PacketPtr reply = MakePacket();
          reply->ip.proto = IpProto::kIcmp;
          reply->ip.src = local_addr_;
          reply->ip.dst = p.ip.src;
          reply->icmp.type = kIcmpEchoReply;
          reply->icmp.id = p.icmp.id;
          reply->icmp.seq = p.icmp.seq;
          reply->payload_bytes = p.payload_bytes;
          reply->created_at = p.created_at;  // carries the ping's birth time
          Msg out;
          out.type = MsgType::kPacketTx;
          out.packet = std::move(reply);
          if (Emit(tx_downstream_, std::move(out))) {
            ++icmp_echoes_answered_;
          }
        }
        return;
      }
      Chan* next = rx_downstream_ != nullptr ? rx_downstream_ : l4_.For(p);
      assert(next != nullptr && "IP server needs a PF or L4 downstream");
      if (Emit(next, msg)) {
        ++rx_forwarded_;
      }
      break;
    }
    case MsgType::kPacketTx: {
      assert(tx_downstream_ != nullptr);
      // Outbound: fill in what the L4 stage left to us.
      msg.packet->ip.ttl = 64;
      if (Emit(tx_downstream_, msg)) {
        ++tx_forwarded_;
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace newtos

#include "src/os/tcp_server.h"

#include <cassert>

namespace newtos {

TcpServer::TcpServer(Simulation* sim, Ipv4Addr addr, const TcpCosts& costs,
                     const TcpParams& tcp_params, size_t chan_capacity,
                     const ChannelCostModel& chan_cost)
    : Server(sim, "tcp"), costs_(costs), table_(this, addr, tcp_params) {
  rx_in_ = CreateInput("rx", chan_capacity, chan_cost);
  app_in_ = CreateInput("app", chan_capacity, chan_cost);
  // Internal sources: segments generated by the protocol state machines,
  // then application events awaiting delivery.
  AddQueueSource(table_.segments());
  AddQueueSource(table_.events());
}

uint32_t TcpServer::RegisterApp(Chan* app_events) {
  apps_.push_back(app_events);
  return static_cast<uint32_t>(apps_.size() - 1);
}

Cycles TcpServer::CostFor(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      return costs_.rx_segment;
    case MsgType::kPacketTx:
      return costs_.tx_segment;
    case MsgType::kSockConnect:
    case MsgType::kSockListen:
    case MsgType::kSockSend:
    case MsgType::kSockClose:
    case MsgType::kSockRead:
      return costs_.sock_op;
    default:
      return costs_.evt_deliver;
  }
}

void TcpServer::Handle(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      if (msg.packet->corrupt != 0) {
        // TCP checksum mismatch: never reaches the FSM. The check covers any
        // corruption class — the L4 checksum spans the pseudo-header, so
        // damage flagged as IP-level (addresses) fails it too, including
        // damage picked up after the IP server already verified the header.
        ++rx_checksum_drops_;
        break;
      }
      ++segments_in_;
      table_.host().OnPacket(msg.packet);
      break;
    case MsgType::kPacketTx:
      assert(ip_tx_ != nullptr && "TCP server needs the IP TX channel");
      ++segments_out_;
      Emit(ip_tx_, msg);
      break;
    case MsgType::kEvtAccepted:
    case MsgType::kEvtEstablished:
    case MsgType::kEvtData:
    case MsgType::kEvtDrained:
    case MsgType::kEvtClosed:
      assert(msg.app < apps_.size());
      ++events_out_;
      Emit(apps_[msg.app], msg);
      break;
    default:
      table_.HandleRequest(msg);
      break;
  }
}

void TcpServer::OnCrash() {
  table_.segments()->clear();
  if (checkpointing_) {
    // Protocol state survives in the replica; only queued work is lost.
    return;
  }
  // All connections die with the server's address space. Apps are told after
  // the restart (the event queue starts draining again then).
  table_.LoseConnections();
}

void TcpServer::OnRestart() {
  if (!checkpointing_) {
    // The recovery script reinstates listening sockets.
    table_.Relisten();
  }
  MaybeSchedule();
}

}  // namespace newtos

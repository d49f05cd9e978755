#include "src/os/udp_server.h"

#include <cassert>
#include <utility>

namespace newtos {

UdpServer::UdpServer(Simulation* sim, Ipv4Addr addr, const UdpCosts& costs, size_t chan_capacity,
                     const ChannelCostModel& chan_cost)
    : Server(sim, "udp"), addr_(addr), costs_(costs) {
  rx_in_ = CreateInput("rx", chan_capacity, chan_cost);
  app_in_ = CreateInput("app", chan_capacity, chan_cost);

  AddQueueSource(&pending_tx_);
  AddQueueSource(&pending_evt_);

  MakeHost();
}

void UdpServer::MakeHost() {
  host_ = std::make_unique<UdpHost>(sim(), addr_, [this](PacketPtr p) {
    pending_tx_.push_back(std::move(p));
    MaybeSchedule();
  });
}

uint32_t UdpServer::RegisterApp(Chan* app_events) {
  apps_.push_back(app_events);
  return static_cast<uint32_t>(apps_.size() - 1);
}

void UdpServer::BindPort(const Binding& b) {
  host_->Bind(b.udp_port, [this, b](const PacketPtr& p) {
    Msg evt;
    evt.type = MsgType::kEvtData;
    evt.handle = b.handle;
    evt.app = b.app;
    evt.value = p->payload_bytes;
    evt.addr = p->ip.src;
    evt.port = p->udp.src_port;
    pending_evt_.push_back(std::move(evt));
    MaybeSchedule();
  });
}

Cycles UdpServer::CostFor(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      return costs_.rx_datagram;
    case MsgType::kPacketTx:
      return costs_.tx_datagram;
    case MsgType::kEvtData:
      return costs_.sock_op / 2;
    default:
      return costs_.sock_op;
  }
}

void UdpServer::Handle(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      if (msg.packet->corrupt != 0) {
        ++rx_checksum_drops_;  // UDP checksum mismatch (pseudo-header included)
        break;
      }
      ++datagrams_in_;
      host_->OnPacket(msg.packet);
      break;
    case MsgType::kPacketTx:
      assert(ip_tx_ != nullptr);
      ++datagrams_out_;
      Emit(ip_tx_, msg);
      break;
    case MsgType::kEvtData:
      assert(msg.app < apps_.size());
      Emit(apps_[msg.app], msg);
      break;
    case MsgType::kSockListen: {
      Binding b{msg.app, msg.handle, msg.port};
      by_handle_[msg.handle] = b;
      bindings_.push_back(b);
      BindPort(b);
      break;
    }
    case MsgType::kSockSend: {
      auto it = by_handle_.find(msg.handle);
      const uint16_t src_port = it != by_handle_.end() ? it->second.udp_port : uint16_t{0};
      host_->Send(src_port, msg.addr, msg.port, static_cast<uint32_t>(msg.value), msg.handle);
      break;
    }
    default:
      break;
  }
}

void UdpServer::OnCrash() {
  pending_tx_.clear();
  pending_evt_.clear();
  by_handle_.clear();
  MakeHost();
}

void UdpServer::OnRestart() {
  for (const Binding& b : bindings_) {
    by_handle_[b.handle] = b;
    BindPort(b);
  }
  MaybeSchedule();
}

}  // namespace newtos

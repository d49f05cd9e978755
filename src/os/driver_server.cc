#include "src/os/driver_server.h"

#include <cassert>

namespace newtos {

DriverServer::DriverServer(Simulation* sim, Nic* nic, const DriverCosts& costs,
                           size_t tx_chan_capacity, const ChannelCostModel& chan_cost)
    : Server(sim, "driver"), nic_(nic), costs_(costs) {
  tx_in_ = CreateInput("tx", tx_chan_capacity, chan_cost);
  // The NIC RX ring is a work source: frames appear there via DMA and the
  // driver's poll loop drains them.
  AddNicRxSource(nic_);
}

Cycles DriverServer::CostFor(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      // Frames drained as part of a backlog amortize descriptor work.
      return nic_->rx_pending() > 0 ? costs_.rx_batched_packet : costs_.rx_per_packet;
    case MsgType::kPacketTx:
      return costs_.tx_per_packet;
    default:
      return 100;
  }
}

void DriverServer::Handle(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      assert(rx_upstream_ != nullptr && "driver needs an upstream before traffic flows");
      if (Emit(rx_upstream_, msg)) {
        ++rx_forwarded_;
      }
      break;
    case MsgType::kPacketTx:
      if (nic_->Transmit(msg.packet)) {
        ++tx_posted_;
      } else {
        ++tx_nic_rejects_;
      }
      break;
    default:
      break;
  }
}

void DriverServer::OnCrash() {
  // Frames already DMA'd into the RX ring but not yet polled are dropped on
  // restart (the fresh driver instance re-initializes its ring view).
  while (PacketPtr p = nic_->PollRx()) {
  }
}

void DriverServer::OnRestart() {
  // Ring re-attached; the notify hook survives (it routes to this object).
  MaybeSchedule();
}

}  // namespace newtos

#include "src/os/monolithic_stack.h"

#include <cassert>
#include <utility>

namespace newtos {

MonolithicStack::MonolithicStack(Simulation* sim, Machine* machine, int core_index, Ipv4Addr addr,
                                 MonolithicCosts costs, TcpParams tcp_params)
    : Server(sim, "monolithic"),
      addr_(addr),
      costs_(costs),
      nic_(machine->nic()),
      table_(this, addr, tcp_params) {
  BindCore(machine->core(core_index));
  // NIC RX ring (softirq-equivalent), then the protocol's outbound segments,
  // socket events, and socket requests.
  AddNicRxSource(nic_);
  AddQueueSource(table_.segments());
  AddQueueSource(table_.events());
  AddQueueSource(&pending_req_);
}

MonolithicStack::Api* MonolithicStack::CreateApp() {
  const uint32_t id = static_cast<uint32_t>(apis_.size());
  apis_.push_back(std::make_unique<Api>(this, id));
  handlers_.emplace_back();
  return apis_.back().get();
}

void MonolithicStack::SubmitRequest(uint32_t app, Msg msg) {
  msg.app = app;
  pending_req_.push_back(std::move(msg));
  MaybeSchedule();
}

Cycles MonolithicStack::CostFor(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      return costs_.rx_path;
    case MsgType::kPacketTx:
      return costs_.tx_path;
    case MsgType::kSockConnect:
    case MsgType::kSockListen:
    case MsgType::kSockSend:
    case MsgType::kSockClose:
    case MsgType::kSockRead:
      return costs_.syscall;
    default:
      return costs_.evt_deliver;
  }
}

void MonolithicStack::Handle(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPacketRx:
      if (msg.packet->corrupt != 0) {
        ++rx_checksum_drops_;  // fused path verifies IP and L4 in one pass
        break;
      }
      ++packets_in_;
      if (msg.packet->ip.dst == addr_ && msg.packet->ip.proto == IpProto::kTcp) {
        table_.host().OnPacket(msg.packet);
      }
      break;
    case MsgType::kPacketTx:
      ++packets_out_;
      nic_->Transmit(msg.packet);
      break;
    case MsgType::kEvtAccepted:
    case MsgType::kEvtEstablished:
    case MsgType::kEvtData:
    case MsgType::kEvtDrained:
    case MsgType::kEvtClosed:
      assert(msg.app < handlers_.size());
      if (handlers_[msg.app]) {
        handlers_[msg.app](msg);
      }
      break;
    default:
      table_.HandleRequest(msg);
      break;
  }
}

// --- Api ---

void MonolithicStack::Api::SetEventHandler(std::function<void(const Msg&)> handler) {
  stack_->handlers_[app_id_] = std::move(handler);
}

uint64_t MonolithicStack::Api::Connect(Ipv4Addr dst, uint16_t port) {
  const uint64_t handle = stack_->next_handle_++;
  stack_->SubmitRequest(app_id_, ConnectRequest(handle, dst, port));
  return handle;
}

void MonolithicStack::Api::Listen(uint16_t port) {
  stack_->SubmitRequest(app_id_, ListenRequest(port));
}

void MonolithicStack::Api::Send(uint64_t handle, uint64_t bytes) {
  stack_->SubmitRequest(app_id_, SendRequest(handle, bytes));
}

void MonolithicStack::Api::Close(uint64_t handle) {
  stack_->SubmitRequest(app_id_, CloseRequest(handle));
}

void MonolithicStack::Api::Compute(Cycles cycles, std::function<void()> then) {
  Core* core = stack_->core();
  assert(core != nullptr);
  // A null continuation must become an *empty* callback, not a wrapped null
  // std::function (which would look engaged and throw when invoked).
  if (then) {
    core->Execute(cycles, std::move(then));
  } else {
    core->Execute(cycles, InlineCallback());
  }
}

Simulation* MonolithicStack::Api::sim() { return stack_->sim(); }

}  // namespace newtos

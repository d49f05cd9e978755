#include "src/os/app_process.h"

#include <cassert>
#include <utility>

namespace newtos {

AppProcess::AppProcess(Simulation* sim, std::string name, Behavior behavior, size_t chan_capacity,
                       const ChannelCostModel& chan_cost)
    : Server(sim, std::move(name)), behavior_(std::move(behavior)) {
  events_in_ = CreateInput("events", chan_capacity, chan_cost);
  AddQueueSource(&pending_req_);
}

void AppProcess::Request(Msg msg) {
  msg.app = app_id_;
  pending_req_.push_back(std::move(msg));
  MaybeSchedule();
}

uint64_t AppProcess::Connect(Ipv4Addr dst, uint16_t port) {
  const uint64_t handle = AllocHandle();
  Request(ConnectRequest(handle, dst, port));
  return handle;
}

void AppProcess::ListenTcp(uint16_t port) { Request(ListenRequest(port)); }

void AppProcess::SendBytes(uint64_t handle, uint64_t bytes) {
  Request(SendRequest(handle, bytes));
}

void AppProcess::Close(uint64_t handle) { Request(CloseRequest(handle)); }

void AppProcess::Compute(Cycles cycles, std::function<void()> then) {
  assert(core() != nullptr);
  const uint64_t gen = generation();
  core()->Execute(cycles, [this, gen, then = std::move(then)] {
    if (gen != generation()) {
      return;
    }
    if (then) {
      then();
    }
  });
}

Cycles AppProcess::CostFor(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kSockConnect:
    case MsgType::kSockListen:
    case MsgType::kSockSend:
    case MsgType::kSockClose:
    case MsgType::kSockRead:
      return behavior_.request_cycles;
    default:
      return behavior_.cost_for ? behavior_.cost_for(msg) : Cycles{300};
  }
}

void AppProcess::Handle(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kSockConnect:
    case MsgType::kSockListen:
    case MsgType::kSockSend:
    case MsgType::kSockClose:
    case MsgType::kSockRead:
      assert(req_out_ != nullptr && "app needs a request channel");
      Emit(req_out_, msg);
      ++requests_sent_;
      break;
    default:
      ++events_seen_;
      if (behavior_.on_event) {
        behavior_.on_event(*this, msg);
      }
      break;
  }
}

}  // namespace newtos

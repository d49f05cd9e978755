#include "src/os/syscall_server.h"

#include <cassert>

#include "src/os/socket_table.h"

namespace newtos {

SyscallServer::SyscallServer(Simulation* sim, const SyscallCosts& costs, size_t chan_capacity,
                             const ChannelCostModel& chan_cost)
    : Server(sim, "syscall"), costs_(costs) {
  req_in_ = CreateInput("req", chan_capacity, chan_cost);
  evt_in_ = CreateInput("evt", chan_capacity, chan_cost);
}

uint32_t SyscallServer::MapApp(Chan* app_events) {
  apps_.push_back(app_events);
  return static_cast<uint32_t>(apps_.size() - 1);
}

Cycles SyscallServer::CostFor(const Msg& msg) {
  (void)msg;
  return costs_.per_msg;
}

uint32_t SyscallServer::ShardFor(const Msg& msg) {
  // Accepted connections carry their shard in the handle; actively opened
  // ones were pinned when the connect was routed.
  if (msg.type == MsgType::kSockConnect) {
    const uint32_t shard = next_connect_shard_++ % static_cast<uint32_t>(l4_req_outs_.size());
    connect_routes_[{msg.app, msg.handle}] = shard;
    return shard;
  }
  auto it = connect_routes_.find({msg.app, msg.handle});
  if (it != connect_routes_.end()) {
    return it->second;
  }
  if (SocketTable::IsAcceptHandle(msg.handle)) {
    return SocketTable::ShardOfAcceptHandle(msg.handle) %
           static_cast<uint32_t>(l4_req_outs_.size());
  }
  return 0;
}

void SyscallServer::Handle(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kSockListen:
      assert(!l4_req_outs_.empty());
      for (Chan* out : l4_req_outs_) {  // every shard accepts on the port
        if (Emit(out, msg)) {
          ++forwarded_;
        }
      }
      break;
    case MsgType::kSockConnect:
    case MsgType::kSockSend:
    case MsgType::kSockClose:
    case MsgType::kSockRead:
      assert(!l4_req_outs_.empty());
      if (Emit(l4_req_outs_[ShardFor(msg)], msg)) {
        ++forwarded_;
      }
      break;
    case MsgType::kEvtClosed:
      connect_routes_.erase({msg.app, msg.handle});
      [[fallthrough]];
    case MsgType::kEvtAccepted:
    case MsgType::kEvtEstablished:
    case MsgType::kEvtData:
    case MsgType::kEvtDrained:
      assert(msg.app < apps_.size());
      if (Emit(apps_[msg.app], msg)) {
        ++forwarded_;
      }
      break;
    default:
      break;
  }
}

}  // namespace newtos

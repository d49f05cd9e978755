#include "src/os/socket_table.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/os/server.h"

namespace newtos {

SocketTable::SocketTable(Server* owner, Ipv4Addr addr, const TcpParams& params)
    : owner_(owner), addr_(addr), params_(params) {
  MakeHost();
}

void SocketTable::MakeHost() {
  host_ = std::make_unique<TcpHost>(owner_->sim(), addr_, [this](PacketPtr p) {
    segments_.push_back(std::move(p));
    owner_->MaybeSchedule();
  });
}

void SocketTable::set_shard(uint32_t index, uint32_t count) {
  assert(index < count && count <= 0x3fff);
  shard_index_ = index;
  shard_count_ = count;
  next_accept_handle_ = (1ULL << 62) | (static_cast<uint64_t>(index) << 48);
}

void SocketTable::QueueEvent(Msg evt) {
  events_.push_back(std::move(evt));
  owner_->MaybeSchedule();
}

TcpHost::AppHooks SocketTable::HooksFor(SockId id) {
  // `id.handle == 0` marks listener hooks: connections arriving there get a
  // table-assigned handle on first establishment.
  TcpHost::AppHooks hooks;
  hooks.on_established = [this, id](TcpConnection* c) {
    auto it = by_conn_.find(c);
    Msg evt;
    if (it == by_conn_.end()) {
      const SockId assigned{id.app, next_accept_handle_++};
      by_conn_[c] = assigned;
      by_sock_[assigned] = c;
      evt.type = MsgType::kEvtAccepted;
      evt.handle = assigned.handle;
      evt.app = assigned.app;
      evt.port = c->key().src_port;  // the listening port
    } else {
      evt.type = MsgType::kEvtEstablished;
      evt.handle = it->second.handle;
      evt.app = it->second.app;
    }
    QueueEvent(std::move(evt));
  };
  hooks.on_data = [this](TcpConnection* c, uint32_t bytes) {
    auto it = by_conn_.find(c);
    if (it == by_conn_.end()) {
      return;
    }
    Msg evt;
    evt.type = MsgType::kEvtData;
    evt.handle = it->second.handle;
    evt.app = it->second.app;
    evt.value = bytes;
    QueueEvent(std::move(evt));
  };
  hooks.on_drained = [this](TcpConnection* c) {
    auto it = by_conn_.find(c);
    if (it == by_conn_.end()) {
      return;
    }
    Msg evt;
    evt.type = MsgType::kEvtDrained;
    evt.handle = it->second.handle;
    evt.app = it->second.app;
    QueueEvent(std::move(evt));
  };
  hooks.on_closed = [this](TcpConnection* c) {
    auto it = by_conn_.find(c);
    if (it == by_conn_.end()) {
      return;
    }
    Msg evt;
    evt.type = MsgType::kEvtClosed;
    evt.handle = it->second.handle;
    evt.app = it->second.app;
    by_sock_.erase(it->second);
    by_conn_.erase(it);
    QueueEvent(std::move(evt));
    // Deferred reap: never delete a connection from inside its own callback.
    // Armed on the host's own wheel so a crash-time host replacement takes
    // the pending reap down with it.
    host_->ScheduleReap();
  };
  return hooks;
}

TcpConnection* SocketTable::Find(const Msg& msg) {
  auto it = by_sock_.find(SockId{msg.app, msg.handle});
  return it != by_sock_.end() ? it->second : nullptr;
}

void SocketTable::HandleRequest(const Msg& msg) {
  switch (msg.type) {
    case MsgType::kSockConnect: {
      std::function<bool(const FlowKey&)> filter;
      if (shard_count_ > 1) {
        filter = [this](const FlowKey& key) {
          return SymmetricFlowHash(key) % shard_count_ == shard_index_;
        };
      }
      const SockId id{msg.app, msg.handle};
      TcpConnection* conn = host_->Connect(msg.addr, msg.port, HooksFor(id), params_, filter);
      if (conn != nullptr) {
        by_sock_[id] = conn;
        by_conn_[conn] = id;
      }
      break;
    }
    case MsgType::kSockListen:
      if (host_->Listen(msg.port, HooksFor(SockId{msg.app, 0}), params_)) {
        listeners_.push_back(ListenEntry{msg.port, msg.app});
      }
      break;
    case MsgType::kSockSend:
      if (TcpConnection* conn = Find(msg)) {
        conn->Send(msg.value);
      } else {
        Msg evt;
        evt.type = MsgType::kEvtClosed;
        evt.handle = msg.handle;
        evt.app = msg.app;
        QueueEvent(std::move(evt));  // the connection died (closed, or in a crash)
      }
      break;
    case MsgType::kSockClose:
      if (TcpConnection* conn = Find(msg)) {
        conn->CloseSend();
      }
      break;
    case MsgType::kSockRead:
      if (TcpConnection* conn = Find(msg)) {
        conn->Read(msg.value);
      }
      break;
    default:
      break;
  }
}

void SocketTable::LoseConnections() {
  events_.clear();
  // Apps are told after the owner restarts (the event queue drains again
  // then). by_conn_ is keyed by pointer, so its raw order differs run to run
  // with heap layout; sort by (app, handle) so the event order is replayable.
  std::vector<SockId> dead;
  dead.reserve(by_conn_.size());
  for (const auto& [conn, id] : by_conn_) {  // lint:allow(map-iteration): order normalized by the sort below
    dead.push_back(id);
  }
  std::sort(dead.begin(), dead.end(), [](const SockId& a, const SockId& b) {
    return a.app != b.app ? a.app < b.app : a.handle < b.handle;
  });
  for (const SockId& id : dead) {
    Msg evt;
    evt.type = MsgType::kEvtClosed;
    evt.handle = id.handle;
    evt.app = id.app;
    events_.push_back(std::move(evt));
  }
  by_sock_.clear();
  by_conn_.clear();
  MakeHost();  // destroys every TcpConnection (cancelling their timers)
}

void SocketTable::Relisten() {
  for (const ListenEntry& l : listeners_) {
    host_->Listen(l.tcp_port, HooksFor(SockId{l.app, 0}), params_);
  }
}

}  // namespace newtos

// SocketTable: the socket layer between applications and one TcpHost, the
// one copy both architectures run. TcpServer (a pinned multiserver stage,
// possibly one of several shards) and MonolithicStack (the in-kernel
// baseline on the application's core, one shard) each own one.
//
// The table owns the host and its two output queues: the segments the
// protocol state machines generate, and the application events (accepted,
// established, data, drained, closed). The owning Server registers both
// queues as work sources (Server::AddQueueSource), charges its own costs for
// what they yield, and delivers it. Socket requests (kSock*) enter through
// HandleRequest, which maps each (app, handle) to its connection.
//
// The semantics every owner shares:
//   * accepted connections get table-assigned handles: bit 62 set, the shard
//     index in bits 48..61, a per-table counter below;
//   * a send on a handle whose connection is gone (closed, or lost in a
//     crash) is answered with kEvtClosed; a close or read on one is ignored;
//   * every successful listen joins the listener set, which Relisten
//     re-creates on a fresh host after a stateful crash.

#ifndef SRC_OS_SOCKET_TABLE_H_
#define SRC_OS_SOCKET_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/tcp_host.h"
#include "src/os/message.h"
#include "src/sim/ring_deque.h"

namespace newtos {

class Server;

class SocketTable {
 public:
  // `owner` is kicked (MaybeSchedule) whenever either output queue grows.
  SocketTable(Server* owner, Ipv4Addr addr, const TcpParams& params);

  SocketTable(const SocketTable&) = delete;
  SocketTable& operator=(const SocketTable&) = delete;

  // Sharded deployment: this table serves shard `index` of `count`. Active
  // opens pick ephemeral ports whose flow hashes back to this shard, and
  // accept handles encode the shard. Call before any traffic.
  void set_shard(uint32_t index, uint32_t count);

  // Shard owning `handle` for accept-side handles (bit 62 set).
  static uint32_t ShardOfAcceptHandle(uint64_t handle) {
    return static_cast<uint32_t>((handle >> 48) & 0x3fff);
  }
  static bool IsAcceptHandle(uint64_t handle) { return (handle >> 62) & 1; }

  TcpHost& host() { return *host_; }
  RingDeque<PacketPtr>* segments() { return &segments_; }
  RingDeque<Msg>* events() { return &events_; }

  // Executes one socket request (kSockConnect/Listen/Send/Close/Read).
  void HandleRequest(const Msg& msg);

  // Every connection died with the owner's address space: the event queue
  // is replaced by one kEvtClosed per open socket, in (app, handle) order,
  // and a fresh host replaces the old one (cancelling all of its timers).
  // The listener set survives for Relisten.
  void LoseConnections();

  // Re-creates every listener of the listener set on the current host.
  void Relisten();

 private:
  struct SockId {
    uint32_t app = 0;
    uint64_t handle = 0;
    friend bool operator==(const SockId&, const SockId&) = default;
  };
  struct SockIdHash {
    size_t operator()(const SockId& s) const {
      return std::hash<uint64_t>()(s.handle * 0x9e3779b97f4a7c15ULL ^ s.app);
    }
  };
  struct ListenEntry {
    uint16_t tcp_port = 0;
    uint32_t app = 0;
  };

  void MakeHost();
  TcpHost::AppHooks HooksFor(SockId id);
  void QueueEvent(Msg evt);
  // The open socket for a request, or null if its connection is gone.
  TcpConnection* Find(const Msg& msg);

  Server* owner_;
  Ipv4Addr addr_;
  TcpParams params_;
  std::unique_ptr<TcpHost> host_;
  RingDeque<PacketPtr> segments_;
  RingDeque<Msg> events_;

  std::unordered_map<SockId, TcpConnection*, SockIdHash> by_sock_;
  std::unordered_map<TcpConnection*, SockId> by_conn_;
  std::vector<ListenEntry> listeners_;
  uint64_t next_accept_handle_ = (1ULL << 62);
  uint32_t shard_index_ = 0;
  uint32_t shard_count_ = 1;
};

}  // namespace newtos

#endif  // SRC_OS_SOCKET_TABLE_H_

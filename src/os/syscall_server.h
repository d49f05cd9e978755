// Syscall gateway server: interposes between applications and the L4 servers.
//
// The paper's multiserver system routes POSIX-ish socket calls through a
// gateway; enabling it adds one pipeline stage (and its cycle cost) in each
// direction, which the consolidation experiments use as an extra stage to
// pack onto slow cores. Requests (app -> L4) and events (L4 -> app) both
// pass through.

#ifndef SRC_OS_SYSCALL_SERVER_H_
#define SRC_OS_SYSCALL_SERVER_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/os/costs.h"
#include "src/os/server.h"

namespace newtos {

class SyscallServer : public Server {
 public:
  SyscallServer(Simulation* sim, const SyscallCosts& costs, size_t chan_capacity,
                const ChannelCostModel& chan_cost);

  // Downstream L4 request channel(s). With multiple TCP shards the gateway
  // routes: listens broadcast to every shard, connects round-robin (the
  // shard then picks an RSS-compatible source port), and per-handle requests
  // follow the owning shard (accept handles carry it; connect handles are
  // remembered at routing time).
  void set_l4_request_outs(std::vector<Chan*> outs) { l4_req_outs_ = std::move(outs); }

  // Requests from applications enter here.
  Chan* req_in() { return req_in_; }

  // The gateway's event input: register THIS with the L4 server, then map
  // each app id to its real event channel here. App ids must match the L4
  // server's assignment (register in the same order).
  Chan* evt_in() { return evt_in_; }
  uint32_t MapApp(Chan* app_events);

  uint64_t forwarded() const { return forwarded_; }

 protected:
  Cycles CostFor(const Msg& msg) override;
  void Handle(const Msg& msg) override;

 private:
  uint32_t ShardFor(const Msg& msg);

  SyscallCosts costs_;
  Chan* req_in_ = nullptr;
  Chan* evt_in_ = nullptr;
  std::vector<Chan*> l4_req_outs_;
  std::vector<Chan*> apps_;
  // (app, handle) -> owning shard, for actively opened connections.
  std::map<std::pair<uint32_t, uint64_t>, uint32_t> connect_routes_;
  uint32_t next_connect_shard_ = 0;
  uint64_t forwarded_ = 0;
};

}  // namespace newtos

#endif  // SRC_OS_SYSCALL_SERVER_H_

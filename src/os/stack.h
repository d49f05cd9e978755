// MultiserverStack: assembles the full NewtOS-style pipeline on a Machine.
//
//            +--------- requests ----------v
//   AppProcess(es)                   [syscall gateway]   (optional stage)
//      ^  events                            v
//      +------------- events ------- TCP / UDP server
//                                        ^      v
//                           [PF server] -+      |
//                                ^              v
//                             IP server  <------+
//                                ^  v
//                             driver server
//                                ^  v
//                                 NIC
//
// Core placement and per-stage frequencies are *not* fixed here: the
// steering policies in src/core decide them, which is the paper's subject.

#ifndef SRC_OS_STACK_H_
#define SRC_OS_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/net/filter.h"
#include "src/net/tcp.h"
#include "src/os/app_process.h"
#include "src/os/costs.h"
#include "src/os/driver_server.h"
#include "src/os/ip_server.h"
#include "src/os/pf_server.h"
#include "src/os/socket_api.h"
#include "src/os/syscall_server.h"
#include "src/os/tcp_server.h"
#include "src/os/udp_server.h"

namespace newtos {

// Canonical server-role names, shared by both execution backends: the DES
// stack below and the live real-thread stack (src/runtime/live_stack) name
// their actors/tracks from this list, so checker reports and trace exports
// line up across modes. Order is the live backend's pin layout (role i on
// cpu i when cores allow).
inline constexpr const char* kStackRoleNames[] = {"app",  "tcp", "ip",
                                                  "peer", "udp", "watchdog"};
inline constexpr size_t kStackRoleCount = sizeof(kStackRoleNames) / sizeof(kStackRoleNames[0]);

struct StackConfig {
  Ipv4Addr addr = Ipv4(10, 0, 0, 1);

  bool use_pf = true;                // interpose the packet-filter stage on RX
  bool use_syscall_gateway = false;  // interpose the gateway on the app side
  size_t pf_rules = 16;              // synthetic chain length when use_pf

  // TCP server shards. Flows spread across shards by symmetric flow hash
  // (IP/PF demux + RSS-compatible source-port selection). Sharding implies
  // the syscall gateway, which routes per-handle requests to their shard.
  int tcp_shards = 1;

  size_t chan_capacity = 1024;
  ChannelCostModel chan_cost;

  // Cold-cache penalty when co-located servers alternate on one core.
  Cycles tenant_switch_cycles = 250;

  DriverCosts driver;
  IpCosts ip;
  PfCosts pf;
  TcpCosts tcp;
  UdpCosts udp;
  SyscallCosts syscall;
  TcpParams tcp_params;
};

class MultiserverStack {
 public:
  // Builds the servers and wires every channel. Servers are NOT bound to
  // cores yet — apply a steering plan (src/core/steering.h) or call
  // BindDefaultLayout() before traffic flows.
  MultiserverStack(Simulation* sim, Machine* machine, const StackConfig& config);

  MultiserverStack(const MultiserverStack&) = delete;
  MultiserverStack& operator=(const MultiserverStack&) = delete;

  // Default placement on a >=4-core machine: driver->1, ip(+pf)->2,
  // tcp(+udp,+gateway)->3, leaving core 0 (and above 3) for applications.
  void BindDefaultLayout();

  // Creates an application pinned to `core`, registered with the TCP server
  // (directly or through the gateway per config). The returned SocketApi is
  // owned by the stack.
  SocketApi* CreateApp(const std::string& name, Core* core);

  DriverServer* driver() { return driver_.get(); }
  IpServer* ip() { return ip_.get(); }
  PfServer* pf() { return pf_.get(); }  // nullptr when use_pf is false
  TcpServer* tcp() { return tcps_[0].get(); }  // shard 0
  TcpServer* tcp_shard(int i) { return tcps_[static_cast<size_t>(i)].get(); }
  int tcp_shard_count() const { return static_cast<int>(tcps_.size()); }
  UdpServer* udp() { return udp_.get(); }
  SyscallServer* syscall() { return syscall_.get(); }  // nullptr unless gateway on
  Machine* machine() { return machine_; }
  const StackConfig& config() const { return config_; }

  // All system servers (not apps), for steering/poll policies to iterate.
  std::vector<Server*> SystemServers();
  std::vector<AppProcess*> Apps();

  // The microreboot cost of one of SystemServers(), from its costs block in
  // the config: the cycles a restart of `server` charges to its core.
  // Matched by identity, so every TCP shard gets the TCP cost.
  Cycles RestartCycles(const Server* server) const;

 private:
  Simulation* sim_;
  Machine* machine_;
  StackConfig config_;

  std::unique_ptr<DriverServer> driver_;
  std::unique_ptr<IpServer> ip_;
  std::unique_ptr<PfServer> pf_;
  std::vector<std::unique_ptr<TcpServer>> tcps_;
  std::unique_ptr<UdpServer> udp_;
  std::unique_ptr<SyscallServer> syscall_;
  std::vector<std::unique_ptr<AppProcess>> apps_;
  std::vector<std::unique_ptr<MultiserverSocket>> sockets_;
};

}  // namespace newtos

#endif  // SRC_OS_STACK_H_

// The DES stack's ring topology as data: one row per producer -> ring edge,
// naming the ring, its producing and consuming role, and the StackConfig
// switch the edge depends on.
//
// MultiserverStack (stack.cc) wires these edges in code; this table is what
// the checkers hold that code to (src/check/stack_check.h):
//   * StackChecker::Attach reports any server input ring that has no row for
//     the stack's configuration, and takes shared-by-design reasons from
//     kStackSharedRings;
//   * the SPSC check runs over every configuration's rendering;
//   * the wiring-equivalence gate (tests/wiring_equiv_test.cc) compares each
//     configuration's observed producers with its rendering.
// Watchdog rings are not listed row by row. Every role in kStackWatchedRoles
// that a configuration builds gets a "<role>/wd" heartbeat ring (watchdog ->
// role) and acks into "watchdog/acks" (role -> watchdog), the rule
// kLiveWatchedRoles follows on the live side (src/runtime/live_wiring.h).

#ifndef SRC_OS_STACK_WIRING_H_
#define SRC_OS_STACK_WIRING_H_

namespace newtos {

// The StackConfig switch an edge or role depends on. The gateway is on when
// use_syscall_gateway is set or tcp_shards > 1 (sharding forces it).
enum class StackWhen : unsigned char { kAlways, kPf, kNoPf, kGateway, kNoGateway };

struct StackRingSpec {
  const char* name;      // "<consumer role>/<input>", as Server::CreateInput names it
  const char* producer;  // pushing role; "" = pushed only from outside the
                         // server graph (UDP workloads bind sockets directly)
  const char* consumer;  // owning role
  StackWhen when;
};

inline constexpr StackRingSpec kStackRingSpecs[] = {
    // RX: driver -> ip -> [pf] -> tcp / udp.
    {"ip/rx", "driver", "ip", StackWhen::kAlways},
    {"pf/rx", "ip", "pf", StackWhen::kPf},
    {"tcp/rx", "pf", "tcp", StackWhen::kPf},
    {"udp/rx", "pf", "udp", StackWhen::kPf},
    {"tcp/rx", "ip", "tcp", StackWhen::kNoPf},
    {"udp/rx", "ip", "udp", StackWhen::kNoPf},
    // TX: tcp / udp -> ip -> driver.
    {"ip/tx", "tcp", "ip", StackWhen::kAlways},
    {"ip/tx", "udp", "ip", StackWhen::kAlways},
    {"driver/tx", "ip", "driver", StackWhen::kAlways},
    // Apps talk to TCP directly, or through the syscall gateway.
    {"tcp/app", "app", "tcp", StackWhen::kNoGateway},
    {"app/events", "tcp", "app", StackWhen::kNoGateway},
    {"syscall/req", "app", "syscall", StackWhen::kGateway},
    {"tcp/app", "syscall", "tcp", StackWhen::kGateway},
    {"syscall/evt", "tcp", "syscall", StackWhen::kGateway},
    {"app/events", "syscall", "app", StackWhen::kGateway},
    {"udp/app", "", "udp", StackWhen::kAlways},
};

// Rings several producers feed by design, each with its reason. Every other
// ring is strictly SPSC. ip/tx and watchdog/acks have several producing roles;
// the app-facing three have several producers of one role once there are
// several apps or TCP shards.
struct StackSharedRing {
  const char* name;
  const char* reason;
};

inline constexpr StackSharedRing kStackSharedRings[] = {
    {"ip/tx", "every L4 server (TCP shards, UDP) emits TX segments into the one IP TX ring"},
    {"watchdog/acks", "every watched server acks heartbeats into the watchdog's ring"},
    {"tcp/app", "without the gateway, every registered app sends socket requests to TCP"},
    {"syscall/req", "every app funnels socket requests through the one gateway ring"},
    {"syscall/evt", "every TCP shard hands app events back through the gateway"},
};

// Roles the fault tooling's watchdog heartbeats, and when the stack builds
// them.
struct StackRoleSpec {
  const char* role;
  StackWhen when;
};

inline constexpr StackRoleSpec kStackWatchedRoles[] = {
    {"driver", StackWhen::kAlways}, {"ip", StackWhen::kAlways},       {"pf", StackWhen::kPf},
    {"syscall", StackWhen::kGateway}, {"tcp", StackWhen::kAlways}, {"udp", StackWhen::kAlways},
};
inline constexpr const char* kStackWatchdogRole = "watchdog";

}  // namespace newtos

#endif  // SRC_OS_STACK_WIRING_H_

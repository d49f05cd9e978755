// The live stack's ring topology as data: one row per ring, naming its
// producing and consuming role and which stack flavours (mini/full) carry it.
//
// This table is the single source of truth for the live wiring. RunLiveFig2
// instantiates its ThreadChannels from these rows, and src/check/stack_check.h
// renders it and checks its SPSC discipline — the wiring-equivalence gate
// compares that rendering with the wiring a live run observes, so a ring
// added in code without a row here fails instead of silently widening the
// topology. Watchdog rings are not listed row-by-row:
// every role in kLiveWatchedRoles gets a "wd/<role>" heartbeat ring
// (watchdog -> role) and a "<role>/wd" ack ring (role -> watchdog), full
// stack only.

#ifndef SRC_RUNTIME_LIVE_WIRING_H_
#define SRC_RUNTIME_LIVE_WIRING_H_

#include <cstddef>

namespace newtos {

struct LiveRingSpec {
  const char* name;      // channel name, "producer/consumer" by convention
  const char* producer;  // role of the one thread that pushes
  const char* consumer;  // role of the one thread that pops
  bool in_mini;          // present in the 3-server mini stack
  bool in_full;          // present in the full stack
};

inline constexpr LiveRingSpec kLiveRingSpecs[] = {
    {"app/tcp", "app", "tcp", true, true},
    {"tcp/peer", "tcp", "peer", true, false},
    {"peer/tcp", "peer", "tcp", true, false},
    {"tcp/ip", "tcp", "ip", false, true},
    {"ip/peer", "ip", "peer", false, true},
    {"peer/ip", "peer", "ip", false, true},
    {"ip/tcp", "ip", "tcp", false, true},
    // Segment bytes (RtPayload), app to peer, beside the header-only data
    // path; the peer pops one payload per data header.
    {"app/peer", "app", "peer", true, true},
};

// Roles the watchdog heartbeats (full stack only); the watchdog thread
// itself carries the role below.
inline constexpr const char* kLiveWatchedRoles[] = {"app", "tcp", "ip", "peer", "udp"};
inline constexpr size_t kLiveWatchedRoleCount =
    sizeof(kLiveWatchedRoles) / sizeof(kLiveWatchedRoles[0]);
inline constexpr const char* kLiveWatchdogRole = "watchdog";

}  // namespace newtos

#endif  // SRC_RUNTIME_LIVE_WIRING_H_

// Ring-table checks and StackChecker.
//
// The two wiring tables — src/os/stack_wiring.h for the DES stack and
// src/runtime/live_wiring.h for the live one — are rendered here into rings,
// one per name, and checked directly:
//   1. SPSC discipline: one consumer and one producing role per ring, unless
//      the ring carries a shared-by-design reason;
//   2. rendering: RenderWiring (channel_checker.h) prints
//      `ring <name> consumer=<c> producers=<p,...>` per ring, as it does for
//      the wiring a run observed, so the equivalence gate is a string
//      comparison.
// No producer in src/ waits on a full ring (the blocking-push lint rule
// holds that over all of src/), so the ring graph has no wait edges to
// check for cycles.
//
// StackChecker wires a ChannelChecker onto a full multiserver stack: each
// server gets an actor identity, each owned input ring registers with the
// checker, shared rings are declared with their table reasons, and a ring
// with no row for the stack's configuration is a violation. After a run,
// read the verdict off the ChannelChecker (ok() / Report()).

#ifndef SRC_CHECK_STACK_CHECK_H_
#define SRC_CHECK_STACK_CHECK_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/check/channel_checker.h"
#include "src/os/server.h"
#include "src/os/stack.h"

namespace newtos {

// The DES stack's rings in one configuration, watchdog rings included,
// sorted by name.
std::vector<WiredRing> StackRings(const StackConfig& config);

// The live stack's rings in one flavour, sorted by name.
std::vector<WiredRing> LiveRings(bool mini);

// One message per ring with several consumers, or several producing roles
// and no shared reason.
std::vector<std::string> CheckSpsc(const std::vector<WiredRing>& rings);

class StackChecker {
 public:
  explicit StackChecker(ChannelChecker* check) : check_(check) {}

  // Attaches every system server and app of the stack. Call after the stack
  // (and its apps) are built, before traffic flows.
  void Attach(MultiserverStack* stack);

  // Attaches one extra server (e.g. the fault tooling's WatchdogServer,
  // which the stack itself never builds). Call after Attach: its rings are
  // checked against the attached stack's configuration.
  void AttachServer(Server* server);

 private:
  void AttachAs(Server* server, std::string_view role);

  ChannelChecker* check_;
  std::vector<WiredRing> rings_;  // the attached stack's configuration
};

}  // namespace newtos

#endif  // SRC_CHECK_STACK_CHECK_H_

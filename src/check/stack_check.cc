#include "src/check/stack_check.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "src/os/stack_wiring.h"
#include "src/runtime/live_wiring.h"

namespace newtos {

namespace {

bool Holds(StackWhen when, const StackConfig& config) {
  const bool gateway = config.use_syscall_gateway || config.tcp_shards > 1;
  switch (when) {
    case StackWhen::kAlways:
      return true;
    case StackWhen::kPf:
      return config.use_pf;
    case StackWhen::kNoPf:
      return !config.use_pf;
    case StackWhen::kGateway:
      return gateway;
    case StackWhen::kNoGateway:
      return !gateway;
  }
  return false;
}

std::string Join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) {
    if (!out.empty()) {
      out += ',';
    }
    out += s;
  }
  return out;
}

}  // namespace

std::vector<WiredRing> StackRings(const StackConfig& config) {
  std::vector<WiredRing> rings;
  for (const StackRingSpec& s : kStackRingSpecs) {
    if (Holds(s.when, config)) {
      AddWiredEdge(&rings, s.name, s.producer, s.consumer);
    }
  }
  for (const StackRoleSpec& w : kStackWatchedRoles) {
    if (Holds(w.when, config)) {
      AddWiredEdge(&rings, std::string(w.role) + "/wd", kStackWatchdogRole, w.role);
      AddWiredEdge(&rings, std::string(kStackWatchdogRole) + "/acks", w.role, kStackWatchdogRole);
    }
  }
  for (WiredRing& r : rings) {
    for (const StackSharedRing& s : kStackSharedRings) {
      if (r.name == s.name) {
        r.shared_reason = s.reason;
      }
    }
  }
  return rings;
}

std::vector<WiredRing> LiveRings(bool mini) {
  std::vector<WiredRing> rings;
  for (const LiveRingSpec& s : kLiveRingSpecs) {
    if (mini ? s.in_mini : s.in_full) {
      AddWiredEdge(&rings, s.name, s.producer, s.consumer);
    }
  }
  if (!mini) {
    for (const char* role : kLiveWatchedRoles) {
      AddWiredEdge(&rings, std::string("wd/") + role, kLiveWatchdogRole, role);
      AddWiredEdge(&rings, std::string(role) + "/wd", role, kLiveWatchdogRole);
    }
  }
  return rings;
}

std::vector<std::string> CheckSpsc(const std::vector<WiredRing>& rings) {
  std::vector<std::string> out;
  for (const WiredRing& r : rings) {
    if (r.consumers.size() > 1) {
      out.push_back("ring '" + r.name + "' has " + std::to_string(r.consumers.size()) +
                    " consumers {" + Join(r.consumers) + "}");
    }
    if (r.producers.size() > 1 && r.shared_reason == nullptr) {
      out.push_back("ring '" + r.name + "' has " + std::to_string(r.producers.size()) +
                    " producing roles {" + Join(r.producers) + "} (consumer: " +
                    Join(r.consumers) + ") and no shared-by-design reason");
    }
  }
  return out;
}

void StackChecker::Attach(MultiserverStack* stack) {
  if (check_ == nullptr || stack == nullptr) {
    return;
  }
  rings_ = StackRings(stack->config());
  for (Server* s : stack->SystemServers()) {
    AttachAs(s, s->name());
  }
  // Apps carry runtime names ("iperf", "httpd"); the table knows them as one
  // role.
  for (AppProcess* app : stack->Apps()) {
    AttachAs(app, "app");
  }
}

void StackChecker::AttachServer(Server* server) {
  if (check_ == nullptr || server == nullptr) {
    return;
  }
  AttachAs(server, server->name());
}

void StackChecker::AttachAs(Server* server, std::string_view role) {
  const uint32_t actor = check_->RegisterActor(server->name());
  server->EnableCheck(check_, actor);
  for (Server::Chan* ch : server->Inputs()) {
    // The server names its rings "<name>/<input>"; the table, "<role>/<input>".
    const std::string row = std::string(role) + ch->name().substr(server->name().size());
    const auto it = std::find_if(rings_.begin(), rings_.end(),
                                 [&row](const WiredRing& r) { return r.name == row; });
    if (it == rings_.end()) {
      check_->DeclareUnwired(ch, "no row for '" + row + "' in this stack configuration");
    } else if (it->shared_reason != nullptr) {
      check_->DeclareSharedProducers(ch, it->shared_reason);
    }
  }
}

}  // namespace newtos

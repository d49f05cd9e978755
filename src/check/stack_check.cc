#include "src/check/stack_check.h"

#include <algorithm>
#include <set>
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

// "*/suffix" matches every ring ending with "/suffix"; anything else is exact.
bool RingMatches(std::string_view pattern, std::string_view ring) {
  if (pattern.size() > 1 && pattern[0] == '*') {
    const std::string_view suffix = pattern.substr(1);
    return ring.size() >= suffix.size() && ring.substr(ring.size() - suffix.size()) == suffix;
  }
  return pattern == ring;
}

// One edge of the wait graph: `from` can spin until `to` drains `ring`.
struct WaitEdge {
  std::string from;
  std::string ring;
  std::string to;
};

// Depth-first cycle search; each cycle is reported once, canonicalized.
class CycleFinder {
 public:
  CycleFinder(const std::vector<WaitEdge>& edges, const std::string& graph,
              std::vector<std::string>* out)
      : edges_(edges), graph_(graph), out_(out) {}

  void Run() {
    for (const WaitEdge& e : edges_) {
      if (done_.count(e.from) == 0) {
        Visit(e.from);
      }
    }
  }

 private:
  void Visit(const std::string& node) {
    on_path_.insert(node);
    for (const WaitEdge& e : edges_) {
      if (e.from != node) {
        continue;
      }
      if (on_path_.count(e.to) > 0) {
        Report(&e);
      } else if (done_.count(e.to) == 0) {
        path_.push_back(&e);
        Visit(e.to);
        path_.pop_back();
      }
    }
    on_path_.erase(node);
    done_.insert(node);
  }

  // `closing` leads back to a role on the current path: the cycle is the
  // path's tail from that role plus `closing`, rotated to start at its
  // smallest role.
  void Report(const WaitEdge* closing) {
    const auto first = std::find_if(path_.begin(), path_.end(), [closing](const WaitEdge* e) {
      return e->from == closing->to;
    });
    std::vector<const WaitEdge*> cycle(first, path_.end());
    cycle.push_back(closing);
    size_t lead = 0;
    for (size_t i = 1; i < cycle.size(); ++i) {
      if (cycle[i]->from < cycle[lead]->from) {
        lead = i;
      }
    }
    std::string chain = cycle[lead]->from;
    for (size_t i = 0; i < cycle.size(); ++i) {
      const WaitEdge* step = cycle[(lead + i) % cycle.size()];
      chain += " -> " + step->ring + " -> " + step->to;
    }
    if (reported_.insert(chain).second) {
      out_->push_back("blocking-wait cycle in the " + graph_ + " graph: " + chain);
    }
  }

  const std::vector<WaitEdge>& edges_;
  const std::string& graph_;
  std::vector<std::string>* out_;
  std::vector<const WaitEdge*> path_;
  std::set<std::string> on_path_;
  std::set<std::string> done_;
  std::set<std::string> reported_;
};

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
  for (WiredRing& r : rings) {
    for (const LiveBlockingSpec& b : kLiveBlockingRings) {
      if (RingMatches(b.ring, r.name)) {
        r.blocking_reason = b.reason;
      }
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

std::vector<std::string> CheckWaitCycles(const std::vector<WiredRing>& rings,
                                         const std::string& graph) {
  std::vector<WaitEdge> edges;
  for (const WiredRing& r : rings) {
    if (r.blocking_reason == nullptr) {
      continue;
    }
    for (const std::string& p : r.producers) {
      for (const std::string& c : r.consumers) {
        edges.push_back(WaitEdge{p, r.name, c});
      }
    }
  }
  std::vector<std::string> out;
  CycleFinder(edges, graph, &out).Run();
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

// Testbed: the standard evaluation rig — a system-under-test machine, a
// zero-cost peer host, and the link between them.
//
// Every bench and most integration tests build one of these; keeping the
// construction in one place makes the experiments directly comparable (same
// machine, same NIC, same link) and keeps bench code about the experiment,
// not the plumbing.

#ifndef SRC_CORE_TESTBED_H_
#define SRC_CORE_TESTBED_H_

#include <memory>
#include <vector>

#include "src/hw/machine.h"
#include "src/os/monolithic_stack.h"
#include "src/os/peer_host.h"
#include "src/os/stack.h"
#include "src/sim/simulation.h"

namespace newtos {

// The core the monolithic baseline runs on.
inline constexpr int kMonolithicCore = 0;

struct TestbedOptions {
  Machine::Params machine;          // SUT hardware
  StackConfig stack;                // multiserver stack configuration
  Ipv4Addr peer_addr = Ipv4(10, 0, 0, 2);
  SimTime link_propagation = 5 * kMicrosecond;  // one-way
  double link_loss = 0.0;
  uint64_t link_loss_seed = 42;

  // When true, build the monolithic baseline instead of the multiserver
  // stack (stack config's costs are ignored; MonolithicStack::Costs apply).
  bool monolithic = false;
  MonolithicCosts monolithic_costs;
};

class Testbed {
 public:
  explicit Testbed(const TestbedOptions& options = {});

  Simulation& sim() { return sim_; }
  Machine& machine() { return *machine_; }
  PeerHost& peer() { return *peer_; }

  // Exactly one of these is non-null, per options.monolithic.
  MultiserverStack* stack() { return stack_.get(); }
  MonolithicStack* mono() { return mono_.get(); }

  Ipv4Addr sut_addr() const { return sut_addr_; }
  Ipv4Addr peer_addr() const { return peer_addr_; }

  // Warm-up barrier: runs the sim for `d`, then zeroes machine stats so
  // that measurement windows exclude connection setup and slow start.
  void WarmUp(SimTime d);

  // Ties an auxiliary object's lifetime (poll policy, governor, …) to the
  // testbed — convenient for configure-callbacks in the bench harness.
  template <typename T>
  T* Keep(std::shared_ptr<T> obj) {
    owned_.push_back(obj);
    return obj.get();
  }

 private:
  Simulation sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Nic> peer_nic_;
  std::unique_ptr<PeerHost> peer_;
  std::unique_ptr<MultiserverStack> stack_;
  std::unique_ptr<MonolithicStack> mono_;
  Ipv4Addr sut_addr_ = 0;
  Ipv4Addr peer_addr_ = 0;
  std::vector<std::shared_ptr<void>> owned_;
};

}  // namespace newtos

#endif  // SRC_CORE_TESTBED_H_

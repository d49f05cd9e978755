#include "src/core/testbed.h"

namespace newtos {

Testbed::Testbed(const TestbedOptions& options) {
  sut_addr_ = options.stack.addr;
  peer_addr_ = options.peer_addr;

  machine_ = std::make_unique<Machine>(&sim_, "sut", options.machine);

  // The peer's NIC mirrors the SUT's link parameters.
  peer_nic_ = std::make_unique<Nic>(&sim_, "peer/nic0", options.machine.nic);
  machine_->nic()->AttachPeer(peer_nic_.get(), options.link_propagation, options.link_loss,
                              options.link_loss_seed);
  peer_nic_->AttachPeer(machine_->nic(), options.link_propagation, options.link_loss,
                        options.link_loss_seed + 1);
  peer_ = std::make_unique<PeerHost>(&sim_, peer_addr_, peer_nic_.get(),
                                     options.stack.tcp_params);

  if (options.monolithic) {
    mono_ = std::make_unique<MonolithicStack>(&sim_, machine_.get(), kMonolithicCore,
                                              sut_addr_, options.monolithic_costs,
                                              options.stack.tcp_params);
  } else {
    stack_ = std::make_unique<MultiserverStack>(&sim_, machine_.get(), options.stack);
    stack_->BindDefaultLayout();
  }
}

void Testbed::WarmUp(SimTime d) {
  sim_.RunFor(d);
  machine_->ResetStatsAt(sim_.Now());
}

}  // namespace newtos

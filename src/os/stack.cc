#include "src/os/stack.h"

#include <cassert>

#include "src/net/packet_pool.h"

namespace newtos {

MultiserverStack::MultiserverStack(Simulation* sim, Machine* machine, const StackConfig& config)
    : sim_(sim), machine_(machine), config_(config) {
  const size_t cap = config_.chan_capacity;
  const ChannelCostModel& cc = config_.chan_cost;

  assert(config_.tcp_shards >= 1);
  if (config_.tcp_shards > 1) {
    config_.use_syscall_gateway = true;  // sharding requires the routing gateway
  }

  // Pre-size the event queue and the process-wide packet pool to their
  // high-water marks, so steady-state traffic never regrows either.
  constexpr size_t kEventReserve = 4096;
  constexpr size_t kPacketReserve = 4096;
  sim_->ReserveEvents(kEventReserve);
  PacketPool::Current().Reserve(kPacketReserve);

  driver_ = std::make_unique<DriverServer>(sim_, machine_->nic(), config_.driver, cap, cc);
  ip_ = std::make_unique<IpServer>(sim_, config_.addr, config_.ip, cap, cc);
  for (int i = 0; i < config_.tcp_shards; ++i) {
    tcps_.push_back(std::make_unique<TcpServer>(sim_, config_.addr, config_.tcp,
                                                config_.tcp_params, cap, cc));
    tcps_.back()->set_shard(static_cast<uint32_t>(i),
                            static_cast<uint32_t>(config_.tcp_shards));
  }
  udp_ = std::make_unique<UdpServer>(sim_, config_.addr, config_.udp, cap, cc);

  std::vector<SimChannel<Msg>*> tcp_rx_shards;
  for (auto& shard : tcps_) {
    tcp_rx_shards.push_back(shard->rx_in());
  }

  // RX path: driver -> ip -> [pf] -> tcp shards / udp.
  driver_->set_rx_upstream(ip_->rx_in());
  if (config_.use_pf) {
    pf_ = std::make_unique<PfServer>(sim_, MakeSyntheticFilter(config_.pf_rules), config_.pf, cap,
                                     cc);
    ip_->set_rx_downstream(pf_->rx_in());
    pf_->set_l4_downstreams(tcp_rx_shards, udp_->rx_in());
  } else {
    ip_->set_l4_downstreams(tcp_rx_shards, udp_->rx_in());
  }

  // TX path: tcp/udp -> ip -> driver -> NIC.
  for (auto& shard : tcps_) {
    shard->set_ip_tx(ip_->tx_in());
  }
  udp_->set_ip_tx(ip_->tx_in());
  ip_->set_tx_downstream(driver_->tx_in());

  if (config_.use_syscall_gateway) {
    syscall_ = std::make_unique<SyscallServer>(sim_, config_.syscall, cap, cc);
    std::vector<SimChannel<Msg>*> req_outs;
    for (auto& shard : tcps_) {
      req_outs.push_back(shard->app_in());
    }
    syscall_->set_l4_request_outs(std::move(req_outs));
  }

  for (Server* s : SystemServers()) {
    s->set_tenant_switch_cycles(config_.tenant_switch_cycles);
  }
}

void MultiserverStack::BindDefaultLayout() {
  assert(machine_->num_cores() >= 4 && "default layout needs >= 4 cores");
  driver_->BindCore(machine_->core(1));
  ip_->BindCore(machine_->core(2));
  if (pf_) {
    pf_->BindCore(machine_->core(2));
  }
  for (auto& shard : tcps_) {
    shard->BindCore(machine_->core(3));
  }
  udp_->BindCore(machine_->core(3));
  if (syscall_) {
    syscall_->BindCore(machine_->core(3));
  }
}

SocketApi* MultiserverStack::CreateApp(const std::string& name, Core* core) {
  auto app = std::make_unique<AppProcess>(sim_, name, AppProcess::Behavior{},
                                          config_.chan_capacity, config_.chan_cost);
  app->BindCore(core);
  if (config_.use_syscall_gateway) {
    // app -> gateway -> tcp shard; events come back shard -> gateway -> app.
    // Registration order keeps every shard's app index aligned with the
    // gateway's.
    // Read only by the assert below.
    [[maybe_unused]] uint32_t id = 0;
    for (auto& shard : tcps_) {
      id = shard->RegisterApp(syscall_->evt_in());
    }
    const uint32_t gw_id = syscall_->MapApp(app->events());
    assert(id == gw_id && "gateway/TCP app ids must stay aligned");
    app->set_app_id(gw_id);
    app->set_request_out(syscall_->req_in());
  } else {
    const uint32_t id = tcps_[0]->RegisterApp(app->events());
    app->set_app_id(id);
    app->set_request_out(tcps_[0]->app_in());
  }
  apps_.push_back(std::move(app));
  sockets_.push_back(std::make_unique<MultiserverSocket>(apps_.back().get()));
  return sockets_.back().get();
}

std::vector<Server*> MultiserverStack::SystemServers() {
  std::vector<Server*> out{driver_.get(), ip_.get(), udp_.get()};
  for (auto& shard : tcps_) {
    out.push_back(shard.get());
  }
  if (pf_) {
    out.push_back(pf_.get());
  }
  if (syscall_) {
    out.push_back(syscall_.get());
  }
  return out;
}

Cycles MultiserverStack::RestartCycles(const Server* server) const {
  assert(server != nullptr);
  if (server == driver_.get()) {
    return config_.driver.restart_cycles;
  }
  if (server == ip_.get()) {
    return config_.ip.restart_cycles;
  }
  if (server == pf_.get()) {
    return config_.pf.restart_cycles;
  }
  if (server == udp_.get()) {
    return config_.udp.restart_cycles;
  }
  if (server == syscall_.get()) {
    return config_.syscall.restart_cycles;
  }
  for (const auto& shard : tcps_) {
    if (server == shard.get()) {
      return config_.tcp.restart_cycles;
    }
  }
  assert(false && "RestartCycles: not a system server of this stack");
  return 0;
}

std::vector<AppProcess*> MultiserverStack::Apps() {
  std::vector<AppProcess*> out;
  out.reserve(apps_.size());
  for (auto& a : apps_) {
    out.push_back(a.get());
  }
  return out;
}

}  // namespace newtos

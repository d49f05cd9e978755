#include "src/scenario/runner.h"

#include <cassert>
#include <optional>
#include <sstream>

#include "src/core/steering.h"
#include "src/core/testbed.h"
#include "src/fabric/incast.h"
#include "src/fault/fault_injector.h"
#include "src/fault/invariants.h"
#include "src/fault/watchdog.h"
#include "src/sim/random.h"
#include "src/trace/stack_trace.h"
#include "src/workload/iperf.h"

namespace newtos::scenario {

namespace {

bool CompareU64(ExpectCheck::Op op, uint64_t got, uint64_t lo, uint64_t hi) {
  switch (op) {
    case ExpectCheck::Op::kEq:
      return got == lo;
    case ExpectCheck::Op::kNe:
      return got != lo;
    case ExpectCheck::Op::kGe:
      return got >= lo;
    case ExpectCheck::Op::kLe:
      return got <= lo;
    case ExpectCheck::Op::kGt:
      return got > lo;
    case ExpectCheck::Op::kLt:
      return got < lo;
    case ExpectCheck::Op::kIn:
      return got >= lo && got <= hi;
  }
  return false;
}

const char* OpName(ExpectCheck::Op op) {
  switch (op) {
    case ExpectCheck::Op::kEq:
      return "==";
    case ExpectCheck::Op::kNe:
      return "!=";
    case ExpectCheck::Op::kGe:
      return ">=";
    case ExpectCheck::Op::kLe:
      return "<=";
    case ExpectCheck::Op::kGt:
      return ">";
    case ExpectCheck::Op::kLt:
      return "<";
    case ExpectCheck::Op::kIn:
      return "in";
  }
  return "?";
}

// Fault-plan seed for a run: the script seed folded with the first inject's
// class and target (FNV-1a over the target bytes) and the run's frequency, so
// every cell of a campaign draws its own RNG streams. A fault-free script
// just folds the frequency into its own seed.
uint64_t ScriptPlanSeed(const Script& script, FreqKhz freq) {
  if (script.injects.empty()) {
    return script.seed ^ static_cast<uint64_t>(freq);
  }
  const FaultSpec& first = script.injects.front();
  uint64_t h = script.seed ^ (static_cast<uint64_t>(first.cls) + 1) * 0x9e3779b97f4a7c15ULL;
  for (char c : first.target) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return h ^ static_cast<uint64_t>(freq);
}

Cycles RestartCyclesFor(const StackConfig& config, const std::string& server_name) {
  if (server_name.find("driver") != std::string::npos) {
    return config.driver.restart_cycles;
  }
  if (server_name.find("tcp") != std::string::npos) {
    return config.tcp.restart_cycles;
  }
  if (server_name.find("udp") != std::string::npos) {
    return config.udp.restart_cycles;
  }
  if (server_name.find("pf") != std::string::npos) {
    return config.pf.restart_cycles;
  }
  if (server_name.find("syscall") != std::string::npos) {
    return config.syscall.restart_cycles;
  }
  return config.ip.restart_cycles;
}

struct TcpAggregate {
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t fast_retransmits = 0;
  uint64_t sack_retransmits = 0;
  uint64_t tlp_probes = 0;
  uint64_t ooo_segments = 0;
  uint64_t corrupt_accepted = 0;

  void Add(const TcpStats& s) {
    retransmits += s.retransmits;
    timeouts += s.timeouts;
    fast_retransmits += s.fast_retransmits;
    sack_retransmits += s.sack_retransmits;
    tlp_probes += s.tlp_probes;
    ooo_segments += s.ooo_segments;
    corrupt_accepted += s.corrupt_segments_accepted;
  }
};

std::string FormatDur(SimTime t) { return FormatTime(t); }

// What a run observed beyond its cell and counters, as its expects read it.
// Only the p2p rig has a recovery plane and samples delivery at `by`
// deadlines; the incast rig leaves `incidents` and `deadline_delivered` null,
// so its `expect delivered ... by` is judged at the end of the run.
struct Observed {
  uint64_t corrupt_accepted = 0;
  uint64_t delivered_at_mark = 0;
  bool stalled = false;
  uint64_t detections = 0;
  const std::vector<MicrorebootManager::Incident>* incidents = nullptr;
  const std::vector<uint64_t>* deadline_delivered = nullptr;  // per expect index
};

// Evaluates every expect of `script` against `out`'s cell and counters, then
// sets out->pass: every expect holds, or the cell verdict if there are none.
void JudgeExpects(const Script& script, const Observed& seen, ScenarioOutcome* out) {
  const CampaignCell& cell = out->cell;
  for (size_t i = 0; i < script.expects.size(); ++i) {
    const ExpectCheck& e = script.expects[i];
    ExpectResult r;
    r.line = e.line;
    std::ostringstream what;
    const bool p2p_only = e.kind == ExpectCheck::Kind::kInjected ||
                          e.kind == ExpectCheck::Kind::kDetected ||
                          e.kind == ExpectCheck::Kind::kRecoveredWithin;
    if (p2p_only && seen.incidents == nullptr) {
      // Parser validation keeps fault/watchdog expects out of incast
      // scripts; anything else reaching here is a programming error.
      r.pass = false;
      what << "expectation unsupported for incast topology";
    } else {
      switch (e.kind) {
        case ExpectCheck::Kind::kInjected:
          r.pass = cell.injected > 0;
          what << "injected (count " << cell.injected << ")";
          break;
        case ExpectCheck::Kind::kDetected:
          r.pass = cell.detected;
          what << "detected (detections " << seen.detections << ")";
          break;
        case ExpectCheck::Kind::kRecoveredWithin: {
          const RecoveryCheck bounded = CheckBoundedRecovery(*seen.incidents, e.bound);
          r.pass = !seen.incidents->empty() && bounded.all_recovered && bounded.all_within_bound;
          what << "recovered within " << FormatDur(e.bound) << " (incidents "
               << seen.incidents->size() << ", worst " << FormatDur(bounded.worst_recover)
               << ")";
          break;
        }
        case ExpectCheck::Kind::kIntegrity:
          r.pass = cell.integrity;
          what << "integrity (corrupt_accepted " << seen.corrupt_accepted << ", delivered "
               << cell.delivered << ")";
          break;
        case ExpectCheck::Kind::kProgress:
          r.pass = cell.progress;
          what << "progress (delivered " << cell.delivered << " vs mark "
               << seen.delivered_at_mark << (seen.stalled ? ", STALLED" : "") << ")";
          break;
        case ExpectCheck::Kind::kDelivered: {
          const bool by_deadline = e.deadline > 0 && seen.deadline_delivered != nullptr;
          const uint64_t got = by_deadline ? (*seen.deadline_delivered)[i] : cell.delivered;
          r.pass = got >= e.value;
          what << "delivered >= " << e.value;
          if (by_deadline) {
            what << " by " << FormatDur(e.deadline);
          }
          what << " (got " << got << ")";
          break;
        }
        case ExpectCheck::Kind::kDigest:
          r.pass = cell.digest == e.value;
          what << "digest 0x" << std::hex << e.value << " (got 0x" << cell.digest << ")";
          break;
        case ExpectCheck::Kind::kCounter: {
          const uint64_t got = out->Counter(e.counter);
          r.pass = CompareU64(e.op, got, e.value, e.high);
          what << "counter " << e.counter << " " << OpName(e.op) << " " << e.value;
          if (e.op == ExpectCheck::Op::kIn) {
            what << ".." << e.high;
          }
          what << " (got " << got << ")";
          break;
        }
      }
    }
    r.what = what.str();
    out->expects.push_back(std::move(r));
  }
  out->pass = script.expects.empty() ? cell.pass : true;
  for (const ExpectResult& r : out->expects) {
    out->pass = out->pass && r.pass;
  }
}

}  // namespace

uint64_t ScenarioOutcome::Counter(const std::string& counter_name) const {
  for (const auto& [n, v] : counters) {
    if (n == counter_name) {
      return v;
    }
  }
  return 0;
}

ScenarioRunner::ScenarioRunner(RunnerOptions options) : options_(std::move(options)) {}

ScenarioOutcome ScenarioRunner::RunOne(const Script& script, FreqKhz freq) {
  return script.topology == Topology::kIncast ? RunIncast(script, freq) : RunP2p(script, freq);
}

std::vector<ScenarioOutcome> ScenarioRunner::RunScript(const Script& script) {
  std::vector<ScenarioOutcome> out;
  for (FreqKhz f : script.freqs) {
    out.push_back(RunOne(script, f));
  }
  return out;
}

std::vector<ScenarioOutcome> ScenarioRunner::RunAll(const std::vector<Script>& scripts) {
  std::vector<ScenarioOutcome> out;
  for (const Script& s : scripts) {
    for (FreqKhz f : s.freqs) {
      out.push_back(RunOne(s, f));
    }
  }
  return out;
}

bool ScenarioRunner::RunCampaignOrder(const std::vector<Script>& scripts,
                                      std::vector<CampaignCell>* cells, std::string* error) {
  cells->clear();
  if (scripts.empty()) {
    return true;
  }
  const Script& first = scripts.front();
  for (const Script& s : scripts) {
    if (s.freqs != first.freqs) {
      *error = s.path + ": freq sweep differs from " + first.path +
               "'s; a campaign runs every script at the same frequencies";
      return false;
    }
  }
  for (FreqKhz freq : first.freqs) {
    for (const Script& s : scripts) {
      cells->push_back(RunOne(s, freq).cell);
    }
  }
  return true;
}

ScenarioOutcome ScenarioRunner::RunP2p(const Script& script, FreqKhz freq) {
  ScenarioOutcome out;
  out.name = script.name;
  out.freq = freq;
  CampaignCell& cell = out.cell;
  if (!script.injects.empty()) {
    cell.cls = script.injects.front().cls;
    cell.target = script.injects.front().target;
  }
  cell.stack_freq = freq;

  // --- Rig construction --------------------------------------------------

  TestbedOptions opts;
  if (script.link.rtt >= 0) {
    opts.link_propagation = script.link.rtt / 2;
  }
  opts.link_loss = script.link.loss;
  opts.link_loss_seed = script.link.loss_seed;
  if (script.link.rate_gbps > 0.0) {
    opts.machine.nic.line_rate_gbps = script.link.rate_gbps;
  }
  if (script.link.queue_slots > 0) {
    opts.machine.nic.tx_ring_slots = script.link.queue_slots;
    opts.machine.nic.rx_ring_slots = script.link.queue_slots;
  }
  if (script.tcp_sack.has_value()) {
    opts.stack.tcp_params.sack = *script.tcp_sack;
  }
  if (script.tcp_tlp.has_value()) {
    opts.stack.tcp_params.tail_loss_probe = *script.tcp_tlp;
  }
  if (script.tcp_rto_min.has_value()) {
    opts.stack.tcp_params.rto_min = *script.tcp_rto_min;
  }

  Testbed tb(opts);
  Simulation& sim = tb.sim();
  MultiserverStack* stack = tb.stack();
  DedicatedSlowPlan(*stack, freq, script.app_freq).Apply(tb.machine());

  // Checkpointed TCP: a rebooted TCP server keeps its connections and lets
  // retransmission repair the gap, so a tab7 cell measures recovery rather
  // than connection re-establishment.
  if (script.checkpoint) {
    for (int i = 0; i < stack->tcp_shard_count(); ++i) {
      stack->tcp_shard(i)->set_checkpointing(true);
    }
  }

  std::optional<MicrorebootManager> mgr;
  std::optional<WatchdogServer> watchdog;
  if (script.watchdog) {
    mgr.emplace(&sim);
    watchdog.emplace(&sim, &*mgr, script.watchdog_params);
    watchdog->BindCore(tb.machine().core(stack->config().watchdog_core));
    for (Server* s : stack->SystemServers()) {
      watchdog->Watch(s, RestartCyclesFor(stack->config(), s->name()));
    }
  }

  StreamIntegrityChecker integrity;
  TcpHost::AppHooks sink_hooks;
  sink_hooks.on_data = [&integrity](TcpConnection*, uint32_t bytes) {
    integrity.OnChunk(bytes);
  };
  tb.peer().tcp().Listen(kIperfPort, sink_hooks, tb.peer().tcp_params());

  SocketApi* api = stack->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  sp.burst_bytes = script.burst_bytes;
  sp.connections = script.connections;
  IperfSender sender(api, sp);

  FaultPlan plan;
  plan.seed = ScriptPlanSeed(script, freq);
  plan.faults = script.injects;
  bool any_wire = false;
  for (const FaultSpec& f : plan.faults) {
    any_wire = any_wire || IsWireFault(f.cls);
  }
  FaultInjector injector(&sim, std::move(plan));
  injector.Arm(stack);
  if (any_wire) {
    injector.ArmWire(tb.machine().nic());  // corrupts ACKs arriving at the SUT
    injector.ArmWire(tb.peer().nic());     // corrupts data arriving at the peer
  }

  // Reorder window: a Bernoulli coin per frame adds a fixed extra wire delay,
  // letting later frames overtake — armed only when the script asks, so
  // unshaped runs schedule identically to a shaper-free rig.
  Rng reorder_fwd(script.seed ^ 0x72656f7264657246ULL);
  Rng reorder_rev(script.seed ^ 0x72656f7264657252ULL);
  if (script.link.reorder_prob > 0.0) {
    const double p = script.link.reorder_prob;
    const SimTime d = script.link.reorder_delay;
    tb.machine().nic()->SetLinkShaper(
        [&reorder_fwd, p, d](const Packet&) { return reorder_fwd.Bernoulli(p) ? d : 0; });
    tb.peer().nic()->SetLinkShaper(
        [&reorder_rev, p, d](const Packet&) { return reorder_rev.Bernoulli(p) ? d : 0; });
  }

  std::optional<StackTracer> tracer;
  if (script.trace || options_.force_trace) {
    StackTracer::Options topt;
    topt.ring_capacity = scenario_defaults::kTraceRingCapacity;
    topt.samplers = false;  // samplers add sim events; tracing must not
    tracer.emplace(&sim, stack, topt);
    if (watchdog.has_value()) {
      tracer->AddServer(&*watchdog);
    }
    tracer->AddNic(tb.machine().nic());
    tracer->AddNic(tb.peer().nic());
    if (mgr.has_value()) {
      tracer->AddMicroreboot(&*mgr);
    }
    tracer->Enable();
  }

  // A recovery legitimately leaves the delivery counter flat for detection +
  // reboot + one RTO, so the stall bound sits above the recovery bound.
  const SimTime detection = watchdog.has_value() ? watchdog->DetectionDeadline() : 0;
  ProgressMonitor progress(
      &sim, [&integrity] { return integrity.delivered(); }, scenario_defaults::kProgressInterval,
      script.recovery_bound + detection + scenario_defaults::kStallMargin);

  for (const FreqStep& step : script.freq_steps) {
    sim.ScheduleAt(step.at, [&tb, stack, step, app = script.app_freq] {
      DedicatedSlowPlan(*stack, step.freq, app).Apply(tb.machine());
    });
  }

  if (watchdog.has_value()) {
    watchdog->Start();
  }
  sender.Start();

  uint64_t delivered_at_mark = 0;
  if (script.measure_at > 0) {
    sim.ScheduleAt(script.measure_at, [&delivered_at_mark, &integrity] {
      delivered_at_mark = integrity.delivered();
    });
  }
  std::vector<uint64_t> deadline_delivered(script.expects.size(), 0);
  for (size_t i = 0; i < script.expects.size(); ++i) {
    const ExpectCheck& e = script.expects[i];
    if (e.kind == ExpectCheck::Kind::kDelivered && e.deadline > 0) {
      sim.ScheduleAt(e.deadline, [&deadline_delivered, &integrity, i] {
        deadline_delivered[i] = integrity.delivered();
      });
    }
  }

  tb.WarmUp(script.warmup);
  const uint64_t events_begin = sim.events_processed();
  if (options_.on_window_begin) {
    options_.on_window_begin();
  }
  progress.Start();
  sim.RunFor(script.run_for);
  out.window_events = sim.events_processed() - events_begin;
  if (options_.on_window_end) {
    options_.on_window_end();
  }

  // --- Judge the cell -----------------------------------------------------

  cell.injected = injector.counters().Total();
  cell.delivered = integrity.delivered();
  cell.digest = integrity.digest();

  TcpAggregate tcp;
  for (int i = 0; i < stack->tcp_shard_count(); ++i) {
    for (TcpConnection* c : stack->tcp_shard(i)->host().Connections()) {
      tcp.Add(c->stats());
    }
  }
  for (TcpConnection* c : tb.peer().tcp().Connections()) {
    tcp.Add(c->stats());
  }
  cell.integrity = tcp.corrupt_accepted == 0 && cell.delivered > 0;
  cell.progress = !progress.stalled() && cell.delivered > delivered_at_mark;

  static const std::vector<MicrorebootManager::Incident> kNoIncidents;
  const std::vector<MicrorebootManager::Incident>& incidents =
      mgr.has_value() ? mgr->incidents() : kNoIncidents;
  const bool injected_ok = script.injects.empty() || cell.injected > 0;
  bool server_fault = false;
  for (const FaultSpec& f : script.injects) {
    server_fault = server_fault || IsServerFault(f.cls);
  }
  RecoveryCheck rc;
  if (server_fault) {
    cell.detected = watchdog.has_value() && !watchdog->detections().empty();
    rc = CheckBoundedRecovery(incidents, script.recovery_bound);
    cell.recovered = !incidents.empty() && rc.all_recovered;
    if (cell.detected) {
      cell.detect_ms = static_cast<double>(rc.worst_detect) / kMillisecond;
    }
    if (cell.recovered) {
      cell.recover_ms = static_cast<double>(rc.worst_recover) / kMillisecond;
    }
    cell.pass = injected_ok && cell.detected && cell.recovered && rc.all_within_bound &&
                cell.integrity && cell.progress;
  } else {
    cell.pass = injected_ok && cell.integrity && cell.progress;
  }

  // --- Counters, in kCounterNames order ------------------------------------

  const FaultInjector::Counters& fc = injector.counters();
  const Nic::Stats& sut_nic = tb.machine().nic()->stats();
  const Nic::Stats& peer_nic = tb.peer().nic()->stats();
  out.counters = {
      {"injected", cell.injected},
      {"delivered", cell.delivered},
      {"chunks", integrity.chunks()},
      {"retransmits", tcp.retransmits},
      {"timeouts", tcp.timeouts},
      {"fast_retransmits", tcp.fast_retransmits},
      {"sack_retransmits", tcp.sack_retransmits},
      {"tlp_probes", tcp.tlp_probes},
      {"ooo_segments", tcp.ooo_segments},
      {"corrupt_accepted", tcp.corrupt_accepted},
      {"rx_checksum_drops", tb.peer().rx_checksum_drops()},
      {"link_loss_drops", sut_nic.link_loss_drops + peer_nic.link_loss_drops},
      {"rx_ring_drops", sut_nic.rx_ring_drops + peer_nic.rx_ring_drops},
      {"tx_ring_rejects", sut_nic.tx_ring_rejects + peer_nic.tx_ring_rejects},
      {"wire_flips", fc.wire_flips},
      {"chan_drops", fc.chan_drops},
      {"chan_dups", fc.chan_dups},
      {"chan_delays", fc.chan_delays},
      {"chan_corrupts", fc.chan_corrupts},
      {"crashes", fc.crashes},
      {"hangs", fc.hangs},
      {"livelocks", fc.livelocks},
      {"detections", watchdog.has_value() ? watchdog->detections().size() : 0},
      {"incidents", incidents.size()},
      {"established", tb.peer().tcp().Connections().size()},
  };
  assert(out.counters.size() == kNumCounters);

  // --- Expects -------------------------------------------------------------

  Observed seen;
  seen.corrupt_accepted = tcp.corrupt_accepted;
  seen.delivered_at_mark = delivered_at_mark;
  seen.stalled = progress.stalled();
  seen.detections = watchdog.has_value() ? watchdog->detections().size() : 0;
  seen.incidents = &incidents;
  seen.deadline_delivered = &deadline_delivered;
  JudgeExpects(script, seen, &out);

  if (tracer.has_value() && options_.on_trace) {
    tracer->Disable();
    options_.on_trace(tracer->recorder());
  }
  return out;
}

ScenarioOutcome ScenarioRunner::RunIncast(const Script& script, FreqKhz freq) {
  ScenarioOutcome out;
  out.name = script.name;
  out.freq = freq;
  CampaignCell& cell = out.cell;
  cell.stack_freq = freq;

  TcpIncastOptions io;
  io.topo.n_clients = script.incast_clients;
  io.topo.lanes = options_.lanes_override > 0 ? options_.lanes_override : script.lanes;
  io.topo.seed = script.seed;
  io.system_freq = freq;
  io.app_freq = script.app_freq;
  io.burst_bytes = script.burst_bytes;
  if (script.tcp_sack.has_value()) {
    io.stack.tcp_params.sack = *script.tcp_sack;
  }
  if (script.tcp_tlp.has_value()) {
    io.stack.tcp_params.tail_loss_probe = *script.tcp_tlp;
  }
  if (script.tcp_rto_min.has_value()) {
    io.stack.tcp_params.rto_min = *script.tcp_rto_min;
  }

  TcpIncastBed bed(io);
  bed.Start();
  bed.RunFor(script.warmup);
  const uint64_t events_begin = bed.engine().TotalEventsProcessed();
  const uint64_t delivered_at_mark = bed.total_bytes();
  if (options_.on_window_begin) {
    options_.on_window_begin();
  }
  bed.RunFor(script.run_for);
  out.window_events = bed.engine().TotalEventsProcessed() - events_begin;
  if (options_.on_window_end) {
    options_.on_window_end();
  }

  const TcpStats stats = bed.AggregateClientStats();
  cell.delivered = bed.total_bytes();
  cell.digest = bed.Digest();
  cell.integrity = stats.corrupt_segments_accepted == 0 && cell.delivered > 0;
  cell.progress = cell.delivered > delivered_at_mark;
  cell.pass = cell.integrity && cell.progress;

  // The zeros are counters this rig does not measure (kIncastCounterNames
  // lists the ones it does); the parser rejects an expect on them.
  out.counters = {
      {"injected", 0},
      {"delivered", cell.delivered},
      {"chunks", 0},
      {"retransmits", stats.retransmits},
      {"timeouts", stats.timeouts},
      {"fast_retransmits", stats.fast_retransmits},
      {"sack_retransmits", stats.sack_retransmits},
      {"tlp_probes", stats.tlp_probes},
      {"ooo_segments", stats.ooo_segments},
      {"corrupt_accepted", stats.corrupt_segments_accepted},
      {"rx_checksum_drops", 0},
      {"link_loss_drops", 0},
      {"rx_ring_drops", 0},
      {"tx_ring_rejects", 0},
      {"wire_flips", 0},
      {"chan_drops", 0},
      {"chan_dups", 0},
      {"chan_delays", 0},
      {"chan_corrupts", 0},
      {"crashes", 0},
      {"hangs", 0},
      {"livelocks", 0},
      {"detections", 0},
      {"incidents", 0},
      {"established", static_cast<uint64_t>(bed.established())},
  };
  assert(out.counters.size() == kNumCounters);

  Observed seen;
  seen.corrupt_accepted = stats.corrupt_segments_accepted;
  seen.delivered_at_mark = delivered_at_mark;
  JudgeExpects(script, seen, &out);
  return out;
}

Table CampaignTable(const std::vector<CampaignCell>& cells) {
  Table t({"fault", "target", "stack_ghz", "injected", "detected", "recovered", "detect_ms",
           "recover_ms", "delivered_mb", "digest", "integrity", "progress", "verdict"});
  for (const CampaignCell& c : cells) {
    const bool server_fault = IsServerFault(c.cls);
    std::ostringstream digest;
    digest << std::hex << c.digest;
    t.AddRow({
        FaultClassName(c.cls),
        c.target.empty() ? "*" : c.target,
        Table::Num(static_cast<double>(c.stack_freq) / 1e6, 1),
        Table::Int(static_cast<int64_t>(c.injected)),
        server_fault ? (c.detected ? "yes" : "NO") : "-",
        server_fault ? (c.recovered ? "yes" : "NO") : "-",
        c.detect_ms >= 0 ? Table::Num(c.detect_ms, 2) : "-",
        c.recover_ms >= 0 ? Table::Num(c.recover_ms, 2) : "-",
        Table::Num(static_cast<double>(c.delivered) / 1e6, 2),
        digest.str(),
        c.integrity ? "ok" : "VIOLATED",
        c.progress ? "ok" : "STALLED",
        c.pass ? "PASS" : "FAIL",
    });
  }
  return t;
}

Table ScenarioMatrix(const std::vector<ScenarioOutcome>& outcomes) {
  Table t({"scenario", "stack_ghz", "delivered_mb", "digest", "window_events", "expects",
           "verdict"});
  for (const ScenarioOutcome& o : outcomes) {
    size_t passed = 0;
    for (const ExpectResult& r : o.expects) {
      passed += r.pass ? 1 : 0;
    }
    std::ostringstream digest;
    digest << std::hex << o.cell.digest;
    std::ostringstream expects;
    expects << passed << "/" << o.expects.size();
    t.AddRow({
        o.name,
        Table::Num(static_cast<double>(o.freq) / 1e6, 1),
        Table::Num(static_cast<double>(o.cell.delivered) / 1e6, 2),
        digest.str(),
        Table::Int(static_cast<int64_t>(o.window_events)),
        expects.str(),
        o.pass ? "PASS" : "FAIL",
    });
  }
  return t;
}

}  // namespace newtos::scenario

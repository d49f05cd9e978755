// Umbrella header: the public API of the NewtOS heterogeneous-multicore
// reproduction. Include this (and link newtos::newtos) to get everything;
// or include the per-module headers for finer-grained dependencies.
//
// Layering (bottom to top):
//   sim      — discrete-event engine (Simulation, EventQueue, Rng)
//   chan     — SpscRing (real lock-free channel), SimChannel, kernel-IPC model
//   net      — packets, codecs, TCP/UDP, packet filter
//   hw       — cores with DVFS, power/energy, NIC, Machine
//   os       — multiserver servers, stack wiring, monolithic baseline,
//              microreboot manager, SocketApi
//   fault    — fault injection (FaultPlan/FaultInjector), heartbeat
//              watchdog, invariant checkers
//   core     — the paper's contribution: steering plans, TurboGovernor,
//              SifGovernor, PollPolicy, the Testbed rig
//   workload — iperf / HTTP / UDP-flood load generators
//   metrics  — stats, histograms, table/CSV writers
//   trace    — allocation-free causal tracing (recorder, samplers,
//              Chrome-trace + folded-stack exporters, StackTracer wiring)
//   host     — real-thread affinity pipeline over SpscRing
//   scenario — .nsc script parser and ScenarioRunner; the scenarios/tab7
//              scripts run through it are the resilience matrix (Tab. 7)

#ifndef SRC_NEWTOS_H_
#define SRC_NEWTOS_H_

#include "src/chan/kernel_ipc.h"
#include "src/chan/sim_channel.h"
#include "src/chan/spsc_ring.h"
#include "src/core/poll_policy.h"
#include "src/core/sif_governor.h"
#include "src/core/steering.h"
#include "src/core/testbed.h"
#include "src/core/turbo.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/fault/invariants.h"
#include "src/fault/watchdog.h"
#include "src/host/affinity.h"
#include "src/host/pipeline.h"
#include "src/hw/cpu.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/hw/operating_point.h"
#include "src/hw/power.h"
#include "src/metrics/histogram.h"
#include "src/metrics/stats.h"
#include "src/metrics/table.h"
#include "src/metrics/timeseries.h"
#include "src/net/checksum.h"
#include "src/net/codec.h"
#include "src/net/filter.h"
#include "src/net/packet.h"
#include "src/net/pcap.h"
#include "src/net/tcp.h"
#include "src/net/tcp_host.h"
#include "src/net/udp.h"
#include "src/os/app_process.h"
#include "src/os/costs.h"
#include "src/os/message.h"
#include "src/os/microreboot.h"
#include "src/os/monolithic_stack.h"
#include "src/os/peer_host.h"
#include "src/os/socket_api.h"
#include "src/os/stack.h"
#include "src/scenario/parser.h"
#include "src/scenario/runner.h"
#include "src/sim/logger.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/folded_stack.h"
#include "src/trace/recorder.h"
#include "src/trace/sampler.h"
#include "src/trace/stack_trace.h"
#include "src/trace/trace_event.h"
#include "src/workload/httpd.h"
#include "src/workload/iperf.h"
#include "src/workload/ping.h"
#include "src/workload/udp_flood.h"

#endif  // SRC_NEWTOS_H_

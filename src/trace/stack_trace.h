// StackTracer: one-call tracing for a whole multiserver stack.
//
// Owns the TraceRecorder and TraceSamplers for an experiment and wires every
// instrumented component of a MultiserverStack — cores (poll/halt instants,
// DVFS counter), the NIC (tx/rx/drop instants), every server (burst spans
// with nested per-message spans) and every server input channel (async
// enqueue→dequeue hops) — plus samplers for core utilization, channel ring
// occupancy, and event-queue depth. Extra servers built outside the stack
// (the watchdog, late-created apps) join via AddServer; a MicrorebootManager
// joins via AddMicroreboot so recovery windows land in the same timeline.
//
// Wiring order: construct the tracer after the stack's channels exist. For a
// watchdog, call Watch() for every monitored server first, then AddServer —
// AddServer registers the input rings that exist at that point.
//
// All interning happens at wiring time; Enable()/Disable() flip recording
// on and off without touching any allocation. With `samplers` enabled the
// ticks add simulation events (raising events_processed) but never perturb
// model-observable state; span/instant/hop recording alone adds no events at
// all, so a traced run's golden determinism hashes match an untraced run's
// bit for bit (tests/determinism_test.cc pins this).

#ifndef SRC_TRACE_STACK_TRACE_H_
#define SRC_TRACE_STACK_TRACE_H_

#include <array>
#include <string>

#include "src/os/microreboot.h"
#include "src/os/stack.h"
#include "src/trace/recorder.h"
#include "src/trace/sampler.h"

namespace newtos {

class StackTracer {
 public:
  struct Options {
    size_t ring_capacity = 1 << 20;  // 32 MiB of events; ring keeps the tail
    bool samplers = true;            // counter sampling (adds sim events)
  };

  StackTracer(Simulation* sim, MultiserverStack* stack);  // default Options
  StackTracer(Simulation* sim, MultiserverStack* stack, const Options& options);

  StackTracer(const StackTracer&) = delete;
  StackTracer& operator=(const StackTracer&) = delete;

  // Wires a server built outside the stack (watchdog, late app) and its
  // input channels. For a watchdog, call after its Watch() calls.
  void AddServer(Server* server);

  // Wires an additional NIC (e.g. the testbed peer's).
  void AddNic(Nic* nic);

  // Routes recovery incidents onto the "recovery" track.
  void AddMicroreboot(MicrorebootManager* mgr);

  // Starts/stops recording (and the samplers, per options). Idempotent.
  void Enable();
  void Disable();

  TraceRecorder& recorder() { return rec_; }
  const TraceRecorder& recorder() const { return rec_; }
  TraceSamplers& samplers() { return samplers_; }

  // Export shortcuts (error-checked file writes; see the exporter headers).
  bool ExportChromeTrace(const std::string& path) const;
  bool ExportFolded(const std::string& path) const;

 private:
  void WireCore(Core* core);
  void WireServer(Server* server, int sort_rank);

  Simulation* sim_;
  Options options_;
  TraceRecorder rec_;
  TraceSamplers samplers_;

  // Interned once; shared by every wired server (indexed by MsgType).
  std::array<NameId, kNumMsgTypes> msg_names_{};
  NameId burst_ = 0;
  NameId crash_ = 0;
  NameId restart_ = 0;
  NameId hop_ = 0;
  NameId depth_ = 0;
  NameId util_ = 0;
  TrackId recovery_track_ = 0;
  int next_server_rank_ = 20;
};

}  // namespace newtos

#endif  // SRC_TRACE_STACK_TRACE_H_

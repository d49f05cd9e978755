// The discrete-event simulation driver.
//
// A `Simulation` owns the clock and the event queue. Model components keep a
// pointer to it and schedule callbacks; the main loop pops events in time
// order and advances the clock. Everything downstream (cores, NICs, servers)
// is built on this single primitive.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <utility>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace newtos {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time.
  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` from now. Negative delays clamp to zero
  // (fire "immediately", after already-queued events at the current instant).
  // The callable is constructed straight into its event slot.
  template <typename F>
  EventHandle Schedule(SimTime delay, F&& fn) {
    if (delay < 0) {
      delay = 0;
    }
    return queue_.Push(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at absolute time `when`; clamps to Now() if in the past.
  template <typename F>
  EventHandle ScheduleAt(SimTime when, F&& fn) {
    if (when < now_) {
      when = now_;
    }
    return queue_.Push(when, std::forward<F>(fn));
  }

  // Pre-sizes the event queue for a known concurrent-event high-water mark,
  // avoiding mid-run regrowth. Safe to call at any time.
  void ReserveEvents(size_t n) { queue_.Reserve(n); }

  // Runs until the queue is empty or Stop() is called. Returns the number of
  // events processed by this call.
  uint64_t Run();

  // Runs all events with time <= `until`, then advances the clock to exactly
  // `until` (even if idle). Returns events processed. Stop() also ends it.
  uint64_t RunUntil(SimTime until);

  // Convenience: RunUntil(Now() + duration).
  uint64_t RunFor(SimTime duration) { return RunUntil(now_ + duration); }

  // Requests the current Run*() call to return after the in-flight event.
  void Stop() { stop_requested_ = true; }

  // True if Stop() ended the last Run*() call.
  bool stopped() const { return stop_requested_; }

  // Total events processed over the simulation's lifetime.
  uint64_t events_processed() const { return events_processed_; }

  // Live (uncancelled) events currently queued. For diagnostics and the
  // tracing subsystem's event-queue-depth sampler.
  size_t PendingEvents() const { return queue_.LiveSize(); }

  // Destroys every pending event without running it. Teardown-only: see
  // EventQueue::Clear() for why multi-lane owners must drain all lanes
  // before destroying any of them.
  void DiscardPendingEvents() { queue_.Clear(); }

  // Simulation-lane identity (src/fabric/lane.h). 0 for standalone
  // simulations; set once by LaneEngine at construction. Diagnostic only:
  // checker reports and traces use it to say *which* lane misbehaved.
  int lane() const { return lane_; }
  void set_lane(int lane) { lane_ = lane; }

 private:
  // Runs the earliest live event if it is due at or before `until`,
  // advancing the clock to it first. Returns false if none is due.
  bool Step(SimTime until);

  EventQueue queue_;
  SimTime now_ = 0;
  bool stop_requested_ = false;
  uint64_t events_processed_ = 0;
  int lane_ = 0;
};

}  // namespace newtos

#endif  // SRC_SIM_SIMULATION_H_

#include "src/sim/simulation.h"

#include <cassert>
#include <limits>

namespace newtos {

bool Simulation::Step(SimTime until) {
  return queue_.RunNext(until, [this](SimTime when) {
    assert(when >= now_ && "event queue went backwards in time");
    now_ = when;
    ++events_processed_;
  });
}

uint64_t Simulation::Run() {
  stop_requested_ = false;
  const uint64_t before = events_processed_;
  while (!stop_requested_ && Step(std::numeric_limits<SimTime>::max())) {
  }
  return events_processed_ - before;
}

uint64_t Simulation::RunUntil(SimTime until) {
  stop_requested_ = false;
  const uint64_t before = events_processed_;
  while (!stop_requested_ && Step(until)) {
  }
  if (!stop_requested_ && now_ < until) {
    now_ = until;
  }
  return events_processed_ - before;
}

}  // namespace newtos

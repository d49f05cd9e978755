// CPU affinity helpers.
//
// RuntimeEngine (src/runtime/engine.h) pins each role it spawns through
// them, for the live stack and the Tab. 3 pipeline alike, and the fabric
// lanes read AvailableCpuCount to choose between spinning and parking.
// Without the NewtOS kernel, a pinned thread is the closest executable
// approximation of "a server on a dedicated core". On hosts with too few
// cores pinning falls back to the scheduler, and everything still runs
// correctly, just time-sliced.

#ifndef SRC_HOST_AFFINITY_H_
#define SRC_HOST_AFFINITY_H_

namespace newtos {

// Number of CPUs the calling thread may run on: its affinity mask, so
// `taskset` and cgroup cpusets count (as `nproc` does). Falls back to the
// online CPU count if the mask cannot be read.
int AvailableCpuCount();

// Pins the calling thread to the `cpu`-th CPU (mod the count) of its
// affinity mask. Returns false if the platform call failed or pinning is
// unsupported.
bool PinThisThreadToCpu(int cpu);

}  // namespace newtos

#endif  // SRC_HOST_AFFINITY_H_

// CPU affinity helpers for the userspace proxy (src/host/pipeline.h).
//
// The repro note for this paper says it best: without the NewtOS kernel, a
// userspace pinned-thread pipeline is the closest executable approximation
// of "servers on dedicated cores". These helpers pin threads; on machines
// with too few cores (like 1-core CI containers) pinning degrades to a
// no-op and the pipeline still runs correctly, just time-sliced.

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

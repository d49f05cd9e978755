#include "src/host/affinity.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

namespace newtos {

int AvailableCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) {
      return n;
    }
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

bool PinThisThreadToCpu(int cpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (cpu < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return false;
  }
  const int ncpu = CPU_COUNT(&allowed);
  if (ncpu <= 0) {
    return false;
  }
  // Index into the allowed set, so `taskset -c 2,3` maps 0 -> 2, 1 -> 3.
  int skip = cpu % ncpu;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed) && skip-- == 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(c, &set);
      return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
    }
  }
  return false;
}

}  // namespace newtos

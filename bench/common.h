// Shared measurement harness for the figure/table benches.
//
// Every experiment follows the paper's methodology: construct the testbed,
// apply a steering configuration, warm the workload up (connection setup +
// slow start excluded), then measure goodput/latency/power over a steady
// window. Helpers here keep the per-bench code about the sweep, not the
// plumbing, and guarantee all benches measure the same way.

#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/testbed.h"
#include "src/metrics/histogram.h"
#include "src/metrics/table.h"
#include "src/workload/httpd.h"
#include "src/workload/iperf.h"

namespace newtos {

struct BulkResult {
  double goodput_gbps = 0.0;   // application bytes delivered at the peer
  double avg_pkg_watts = 0.0;  // SUT package power over the window
  double joules = 0.0;         // SUT package energy over the window
  uint64_t bytes = 0;
  std::vector<double> core_util;  // per-core utilization over the window
};

// Bulk-TCP transmit (SUT -> peer). `configure` runs after construction and
// may apply steering plans, poll policies, governors; it may be nullptr.
BulkResult MeasureBulkTx(const TestbedOptions& options,
                         const std::function<void(Testbed&)>& configure,
                         SimTime warmup = 150 * kMillisecond,
                         SimTime window = 200 * kMillisecond, int connections = 1);

struct HttpResult {
  double responses_per_sec = 0.0;
  SimTime p50 = 0;
  SimTime p99 = 0;
  double avg_pkg_watts = 0.0;
  double joules = 0.0;
  uint64_t responses = 0;
  FreqKhz app_freq = 0;  // app-core frequency during the window
};

// HTTP closed-loop (peer clients -> SUT server app on core 0).
HttpResult MeasureHttp(const TestbedOptions& options, const HttpParams& params,
                       const std::function<void(Testbed&)>& configure,
                       SimTime warmup = 100 * kMillisecond,
                       SimTime window = 300 * kMillisecond);

// The frequency axis most figures sweep (descending, base clock down).
std::vector<FreqKhz> StackFrequencySweep();

// Formats kHz as "3.6" (GHz, one decimal).
std::string GhzStr(FreqKhz f);

// Resolves the CSV output path next to the binary: "<name>.csv".
std::string CsvPath(const char* argv0, const std::string& name);

// Writes `t` to CsvPath(argv0, name) and warns on stderr if the write fails
// (full disk, unwritable results dir). Returns false on failure so benches
// can propagate it as an exit code.
bool WriteBenchCsv(const Table& t, const char* argv0, const std::string& name);

}  // namespace newtos

#endif  // BENCH_COMMON_H_

// runtime_vs_sim: the fig2 bulk-TCP workload in both execution backends.
//
// DES mode is the simulator (src/sim + src/os): modeled time, one thread,
// the Testbed the figure benches use. Live mode is src/runtime: each server
// role on a real OS thread over ThreadChannels, wall-clock time.
//
//   runtime_vs_sim --check [--bytes N]
//     The digest-equivalence gate: the two backends must deliver
//     byte-identical application streams (equal FNV digests, chunk counts
//     and byte totals) in the full and mini live topologies, with zero
//     channel-protocol violations.
//   runtime_vs_sim --trace [--bytes N] [--trace-out PATH]
//     One traced live run, written as a merged Perfetto trace
//     (default trace_live_fig2.json).
//
// Exit codes: 0 ok, 1 gate or write failure, 2 usage. Live-stack speed
// (goodput, per-message latency, ring throughput) is measured by
// perfbench's live_rtt workload, not here.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/runtime/fig2_ref.h"
#include "src/runtime/live_stack.h"
#include "src/trace/chrome_trace.h"

namespace newtos {
namespace {

// --check: the CI digest-equivalence gate. One DES run (validated loss-free
// via the retransmit tripwire) against one live run of each topology; any
// byte-stream divergence or channel-protocol violation fails the gate.
int RunCheck(uint64_t bytes) {
  const Fig2DesResult des = RunFig2Des(bytes);
  if (!des.completed || des.retransmits != 0) {
    std::fprintf(stderr, "FAIL: DES reference invalid (completed=%d retransmits=%llu)\n",
                 des.completed, static_cast<unsigned long long>(des.retransmits));
    return 1;
  }
  for (const bool mini : {false, true}) {
    LiveStackConfig cfg;
    cfg.transfer_bytes = bytes;
    cfg.mini = mini;
    const LiveStackResult live = RunLiveFig2(cfg);
    const char* topo = mini ? "mini" : "full";
    if (!live.completed || !live.conservation_ok) {
      std::fprintf(stderr, "FAIL: %s live run (completed=%d conservation=%d)\n", topo,
                   live.completed, live.conservation_ok);
      return 1;
    }
    if (live.digest != des.digest || live.chunks != des.chunks ||
        live.delivered != des.delivered) {
      std::fprintf(stderr,
                   "FAIL: %s stream diverged from DES — digest %016llx vs %016llx, "
                   "chunks %llu vs %llu, bytes %llu vs %llu\n",
                   topo, static_cast<unsigned long long>(live.digest),
                   static_cast<unsigned long long>(des.digest),
                   static_cast<unsigned long long>(live.chunks),
                   static_cast<unsigned long long>(des.chunks),
                   static_cast<unsigned long long>(live.delivered),
                   static_cast<unsigned long long>(des.delivered));
      return 1;
    }
    if (live.payload_errors != 0 || live.TotalImposters() != 0) {
      std::fprintf(stderr, "FAIL: %s live run payload_errors=%llu imposters=%llu\n", topo,
                   static_cast<unsigned long long>(live.payload_errors),
                   static_cast<unsigned long long>(live.TotalImposters()));
      return 1;
    }
  }
  std::printf("OK: DES and live backends delivered byte-identical streams "
              "(digest %016llx, %llu chunks, %llu bytes) in full and mini topologies\n",
              static_cast<unsigned long long>(des.digest),
              static_cast<unsigned long long>(des.chunks),
              static_cast<unsigned long long>(des.delivered));
  return 0;
}

// --trace: one traced live run, per-server recorders merged into a single
// Perfetto-loadable timeline (six thread tracks, async data-path arrows).
int RunTrace(uint64_t bytes, const std::string& path) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = bytes;
  cfg.enable_trace = true;
  const LiveStackResult r = RunLiveFig2(cfg);
  if (!r.completed) {
    std::fprintf(stderr, "runtime_vs_sim: traced live run hit the deadline\n");
    return 1;
  }
  std::vector<const TraceRecorder*> recs;
  for (const auto& rec : r.recorders) {
    recs.push_back(rec.get());
  }
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open() || !WriteChromeTraceMerged(recs, out) || !out.flush()) {
    std::fprintf(stderr, "runtime_vs_sim: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%llu segments across %zu server tracks)\n", path.c_str(),
              static_cast<unsigned long long>(r.chunks), recs.size());
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --check | --trace [--bytes N] [--trace-out PATH]\n", argv0);
  return 2;
}

int Run(int argc, char** argv) {
  uint64_t bytes = 1 << 20;
  bool check = false;
  bool trace = false;
  std::string trace_out = "trace_live_fig2.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--bytes") == 0 && i + 1 < argc) {
      bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (check) {
    return RunCheck(bytes);
  }
  if (trace) {
    return RunTrace(bytes, trace_out);
  }
  return Usage(argv[0]);
}

}  // namespace
}  // namespace newtos

int main(int argc, char** argv) { return newtos::Run(argc, argv); }

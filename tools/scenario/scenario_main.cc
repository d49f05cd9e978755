// newtos_scenario: run .nsc scenario scripts and judge their expectations.
//
//   newtos_scenario scenarios/wan/loss_1pct.nsc        one script, all freqs
//   newtos_scenario --dir scenarios/wan --check        sweep a directory,
//                                                      exit 1 on any FAIL
//   newtos_scenario --decomp out/wan_ x.nsc            force tracing and
//       write per-stage latency decomposition + CDF CSVs per run
//   newtos_scenario --lanes N ...                      override incast lanes
//   newtos_scenario --list --dir scenarios             parse + describe only
//
// The interpreter's zero-allocation gate is ScenarioAllocGate in
// tests/alloc_gate_test.cc.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "src/fabric/incast.h"
#include "src/scenario/parser.h"
#include "src/scenario/runner.h"
#include "src/trace/latency_decomp.h"

namespace newtos::scenario {
namespace {

struct Args {
  std::vector<std::string> files;
  std::string dir;
  std::string csv;
  std::string decomp_prefix;
  int lanes = 0;
  bool check = false;
  bool list = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [SCRIPT.nsc ...] [--dir PATH] [--check] [--list] [--lanes N]\n"
               "          [--csv PATH] [--decomp PREFIX]\n",
               argv0);
  return 2;
}

std::string FreqTag(FreqKhz f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lldkhz", static_cast<long long>(f));
  return buf;
}

int Run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--dir") == 0 && i + 1 < argc) {
      args.dir = argv[++i];
    } else if (std::strcmp(a, "--csv") == 0 && i + 1 < argc) {
      args.csv = argv[++i];
    } else if (std::strcmp(a, "--decomp") == 0 && i + 1 < argc) {
      args.decomp_prefix = argv[++i];
    } else if (std::strcmp(a, "--lanes") == 0 && i + 1 < argc) {
      const long requested = std::strtol(argv[++i], nullptr, 10);
      // The fixed cap only; each incast script's client bound is checked
      // once the scripts are loaded.
      const std::string why = IncastLanesError(kMaxIncastLanes, requested);
      if (!why.empty()) {
        std::fprintf(stderr, "--lanes: %s\n", why.c_str());
        return 2;
      }
      args.lanes = static_cast<int>(requested);
    } else if (std::strcmp(a, "--check") == 0) {
      args.check = true;
    } else if (std::strcmp(a, "--list") == 0) {
      args.list = true;
    } else if (a[0] == '-') {
      return Usage(argv[0]);
    } else {
      args.files.push_back(a);
    }
  }
  if (args.files.empty() && args.dir.empty()) {
    return Usage(argv[0]);
  }

  std::vector<Script> scripts;
  ParseError err;
  if (!args.dir.empty() && !LoadScriptDir(args.dir, &scripts, &err)) {
    std::fprintf(stderr, "%s\n", err.Format().c_str());
    return 2;
  }
  for (const std::string& f : args.files) {
    Script s;
    if (!LoadScript(f, &s, &err)) {
      std::fprintf(stderr, "%s\n", err.Format().c_str());
      return 2;
    }
    scripts.push_back(std::move(s));
  }

  for (const Script& s : scripts) {
    if (args.lanes == 0 || s.topology != Topology::kIncast) {
      continue;
    }
    const std::string why = IncastLanesError(s.incast_clients, args.lanes);
    if (!why.empty()) {
      std::fprintf(stderr, "%s: --lanes: %s\n", s.path.c_str(), why.c_str());
      return 2;
    }
  }

  if (args.list) {
    for (const Script& s : scripts) {
      std::string freqs;
      for (FreqKhz f : s.freqs) {
        freqs += (freqs.empty() ? "" : " ") + Table::Num(static_cast<double>(f) / 1e6, 1);
      }
      std::printf("%-28s %-8s freqs[GHz]: %-12s injects: %zu expects: %zu  (%s)\n",
                  s.name.c_str(), s.topology == Topology::kIncast ? "incast" : "p2p",
                  freqs.c_str(), s.injects.size(), s.expects.size(), s.path.c_str());
    }
    return 0;
  }

  std::vector<ScenarioOutcome> outcomes;
  for (const Script& s : scripts) {
    for (FreqKhz freq : s.freqs) {
      RunnerOptions ro;
      ro.lanes_override = args.lanes;
      LatencyDecomposer decomp;
      if (!args.decomp_prefix.empty()) {
        ro.force_trace = true;
        ro.on_trace = [&decomp](const TraceRecorder& rec) { decomp.Consume(rec); };
      }
      ScenarioRunner runner(std::move(ro));
      ScenarioOutcome o = runner.RunOne(s, freq);

      if (!args.decomp_prefix.empty()) {
        const std::string base = args.decomp_prefix + o.name + "_" + FreqTag(freq);
        if (!decomp.WriteStageCsv(base + "_stages.csv") ||
            !decomp.WriteCdfCsv(base + "_cdf.csv")) {
          std::fprintf(stderr, "cannot write %s_{stages,cdf}.csv\n", base.c_str());
          return 1;
        }
        decomp.StageTable().Print(std::cout, o.name + " latency decomposition");
        std::printf("episodes %llu, hops %llu, unmatched %llu; wrote %s_{stages,cdf}.csv\n",
                    static_cast<unsigned long long>(decomp.episodes()),
                    static_cast<unsigned long long>(decomp.hops()),
                    static_cast<unsigned long long>(decomp.unmatched()), base.c_str());
      }

      for (const ExpectResult& r : o.expects) {
        if (!r.pass) {
          std::fprintf(stderr, "%s:%d: FAILED expect %s\n", s.path.c_str(), r.line,
                       r.what.c_str());
        }
      }
      outcomes.push_back(std::move(o));
    }
  }

  const Table matrix = ScenarioMatrix(outcomes);
  matrix.Print(std::cout, "scenario matrix");
  if (!args.csv.empty()) {
    if (!matrix.WriteCsvFile(args.csv)) {
      std::fprintf(stderr, "cannot write %s\n", args.csv.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.csv.c_str());
  }

  int failed = 0;
  for (const ScenarioOutcome& o : outcomes) {
    failed += o.pass ? 0 : 1;
  }
  if (args.check && failed > 0) {
    std::fprintf(stderr, "FAIL: %d scenario run(s) failed\n", failed);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace newtos::scenario

int main(int argc, char** argv) { return newtos::scenario::Run(argc, argv); }

// Tab. 7 — Resilience matrix: fault taxonomy x stack frequency.
//
// Runs the scenarios/tab7 scripts through the scenario runner in campaign
// order (frequency outer, script inner). The eleven scripts cover every fault
// class (channel drop/duplicate/delay/corrupt, wire bit flips, server
// crash/hang/livelock) against representative stack stages, at full-speed
// (3.6 GHz) and slow (1.2 GHz) stack cores, with the watchdog + microreboot
// recovery plane armed. Each cell reports whether the fault was injected,
// detected, and recovered within the bound, plus the stream-integrity and
// progress verdicts. tests/golden/tab7_fault_campaign.csv pins the CSV.
//
// Expected shape: every cell passes at both frequencies. Detection latency is
// frequency-independent (the watchdog lives on the fast app core); only the
// reboot tail stretches at 1.2 GHz, and it stays well inside the 100 ms
// recovery bound — the paper's argument that slow cores do not compromise
// recoverability.
//
// Exit codes: 0 every cell passes, 1 a cell fails (each is named on stderr)
// or the CSV cannot be written, 2 the scripts fail to load.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/scenario/parser.h"
#include "src/scenario/runner.h"

namespace newtos::scenario {
namespace {

int Run(const char* argv0) {
  std::vector<Script> scripts;
  ParseError err;
  if (!LoadScriptDir(std::string(NEWTOS_SCENARIO_DIR) + "/tab7", &scripts, &err)) {
    std::fprintf(stderr, "%s\n", err.Format().c_str());
    return 2;
  }
  ScenarioRunner runner;
  std::vector<CampaignCell> cells;
  std::string error;
  if (!runner.RunCampaignOrder(scripts, &cells, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  const Table t = CampaignTable(cells);
  t.Print(std::cout, "Tab.7 — fault-injection campaign, resilience by fault class and stack frequency");
  const bool wrote = WriteBenchCsv(t, argv0, "tab7_fault_campaign");

  int pass = 0;
  for (const CampaignCell& c : cells) {
    if (c.pass) {
      ++pass;
    } else {
      std::fprintf(stderr, "FAIL: %s %s @ %s GHz\n", FaultClassName(c.cls),
                   c.target.empty() ? "*" : c.target.c_str(), GhzStr(c.stack_freq).c_str());
    }
  }
  std::cout << "\n" << pass << "/" << cells.size() << " cells pass\n";
  return pass == static_cast<int>(cells.size()) && wrote ? 0 : 1;
}

}  // namespace
}  // namespace newtos::scenario

int main(int, char** argv) { return newtos::scenario::Run(argv[0]); }

// Fig. 6 — Consolidation: the whole stack on one core.
//
// Once per-stage cores have slack (Fig. 3), the stages can share. This bench
// compares four architectures on the same bulk-TCP workload:
//   dedicated-3.6   three big cores for the stack (NewtOS baseline)
//   dedicated-1.6   three slow cores for the stack
//   consolidated-*  ALL system servers on ONE core at 3.6 / 2.4 / 1.6 GHz
//   monolithic      stack fused into the app's core (Linux-like)
// and reports goodput, package power, and energy per gigabit.
//
// Expected shape: consolidated-3.6 holds near line rate (sum of stage costs
// still fits one fast core); consolidated-1.6 does not. Dedicated-slow and
// consolidated-fast bracket the throughput/power trade; every multiserver
// variant beats monolithic on app-core availability (see Tab. 2 for that
// axis) while monolithic wins on raw packet cost.

#include <iostream>

#include "bench/common.h"
#include "src/core/steering.h"
#include "src/metrics/table.h"

namespace newtos {
namespace {

void AddRow(Table& t, const std::string& name, const BulkResult& r) {
  const double joules_per_gbit =
      r.goodput_gbps > 0.0 ? r.avg_pkg_watts / r.goodput_gbps : 0.0;
  t.AddRow({name, Table::Num(r.goodput_gbps, 4), Table::Num(r.avg_pkg_watts, 3),
            Table::Num(joules_per_gbit, 4)});
}

void Run(const char* argv0) {
  Table t({"configuration", "goodput_gbps", "pkg_watts", "J_per_gbit"});

  AddRow(t, "dedicated @3.6", MeasureBulkTx({}, [](Testbed& tb) {
           DedicatedPlan(*tb.stack(), 3'600'000 * kKhz).Apply(tb.machine());
         }));
  AddRow(t, "dedicated @1.6", MeasureBulkTx({}, [](Testbed& tb) {
           DedicatedSlowPlan(*tb.stack(), 1'600'000 * kKhz, 3'600'000 * kKhz)
               .Apply(tb.machine());
         }));
  for (FreqKhz f : {3'600'000 * kKhz, 2'400'000 * kKhz, 1'600'000 * kKhz}) {
    AddRow(t, "consolidated @" + GhzStr(f), MeasureBulkTx({}, [f](Testbed& tb) {
             ConsolidatedPlan(*tb.stack(), 1, f, 3'600'000 * kKhz).Apply(tb.machine());
             // Unused former stack cores are parked at the floor.
             tb.machine().core(2)->SetFrequency(600'000 * kKhz);
             tb.machine().core(3)->SetFrequency(600'000 * kKhz);
           }));
  }
  {
    TestbedOptions mono;
    mono.monolithic = true;
    AddRow(t, "monolithic @3.6", MeasureBulkTx(mono, [](Testbed& tb) {
             for (int i = 1; i < tb.machine().num_cores(); ++i) {
               tb.machine().core(i)->SetFrequency(600'000 * kKhz);  // park unused
             }
           }));
  }

  t.Print(std::cout, "Fig.6 — consolidation: bulk TCP goodput and power by architecture");
  WriteBenchCsv(t, argv0, "fig6_consolidation");
}

}  // namespace
}  // namespace newtos

int main(int, char** argv) {
  newtos::Run(argv[0]);
  return 0;
}

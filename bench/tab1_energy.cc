// Tab. 1 — Energy per gigabit by configuration, at matched throughput.
//
// The efficiency claim: a reliable multiserver stack need not be an energy
// hog if its cores are slowed (and, even better, halted when idle). Bulk
// TCP at whatever each configuration sustains; we report goodput, package
// power, and J/Gbit — the figure of merit the paper's energy argument uses.
//
// Expected shape: dedicated-fast burns the most; slowing the stack cores
// cuts J/Gbit substantially at (near-)equal goodput; adding halt-when-idle
// cuts the app/spare-core waste too; consolidation is the most frugal
// multiserver option at line rate.

#include <iostream>

#include "bench/common.h"
#include "src/core/poll_policy.h"
#include "src/core/steering.h"
#include "src/metrics/table.h"

namespace newtos {
namespace {

void AddRow(Table& t, const std::string& name, const BulkResult& r) {
  t.AddRow({name, Table::Num(r.goodput_gbps, 4), Table::Num(r.avg_pkg_watts, 3),
            Table::Num(r.goodput_gbps > 0 ? r.avg_pkg_watts / r.goodput_gbps : 0.0, 4)});
}

void Run(const char* argv0) {
  Table t({"configuration", "goodput_gbps", "pkg_watts", "J_per_gbit"});

  AddRow(t, "dedicated @3.6, poll", MeasureBulkTx({}, [](Testbed& tb) {
           DedicatedPlan(*tb.stack(), 3'600'000 * kKhz).Apply(tb.machine());
         }));
  AddRow(t, "dedicated @2.4, poll", MeasureBulkTx({}, [](Testbed& tb) {
           DedicatedSlowPlan(*tb.stack(), 2'400'000 * kKhz, 3'600'000 * kKhz)
               .Apply(tb.machine());
         }));
  AddRow(t, "dedicated @2.4, halt-idle", MeasureBulkTx({}, [](Testbed& tb) {
           DedicatedSlowPlan(*tb.stack(), 2'400'000 * kKhz, 3'600'000 * kKhz)
               .Apply(tb.machine());
           PollPolicy* policy =
               tb.Keep(std::make_shared<PollPolicy>(&tb.sim(), PollMode::kHaltWhenIdle));
           policy->Manage(tb.machine().core(1), {tb.stack()->driver()});
           policy->Manage(tb.machine().core(2), {tb.stack()->ip(), tb.stack()->pf()});
           policy->Manage(tb.machine().core(3), {tb.stack()->tcp(), tb.stack()->udp()});
           tb.machine().core(4)->SetIdleActivity(CoreActivity::kHalted);
         }));
  AddRow(t, "consolidated @3.2", MeasureBulkTx({}, [](Testbed& tb) {
           ConsolidatedPlan(*tb.stack(), 1, 3'200'000 * kKhz, 3'600'000 * kKhz)
               .Apply(tb.machine());
           tb.machine().core(2)->SetFrequency(600'000 * kKhz);
           tb.machine().core(3)->SetFrequency(600'000 * kKhz);
           tb.machine().core(2)->SetIdleActivity(CoreActivity::kHalted);
           tb.machine().core(3)->SetIdleActivity(CoreActivity::kHalted);
           tb.machine().core(4)->SetIdleActivity(CoreActivity::kHalted);
         }));
  {
    TestbedOptions mono;
    mono.monolithic = true;
    AddRow(t, "monolithic @3.6", MeasureBulkTx(mono, [](Testbed& tb) {
             for (int i = 1; i < tb.machine().num_cores(); ++i) {
               tb.machine().core(i)->SetFrequency(600'000 * kKhz);
               tb.machine().core(i)->SetIdleActivity(CoreActivity::kHalted);
             }
           }));
  }

  t.Print(std::cout, "Tab.1 — energy per gigabit by configuration (bulk TCP TX)");
  WriteBenchCsv(t, argv0, "tab1_energy");
}

}  // namespace
}  // namespace newtos

int main(int, char** argv) {
  newtos::Run(argv[0]);
  return 0;
}

// The Tab. 7 gate: running the checked-in scenarios/tab7 scripts through the
// scenario runner in campaign order must reproduce the checked-in resilience
// CSV, tests/golden/tab7_fault_campaign.csv, byte for byte. The golden pins
// the fault space (fault, target, stack_ghz), every cell's injection count,
// detect/recover times, delivered volume and stream digest, and the 22/22
// PASS verdicts, so a model change that moves any cell fails here.
//
// The golden was captured from the hand-coded campaign runner the scripts
// replaced. A change that is supposed to be behaviour-preserving must
// reproduce it exactly. If a change is *intended* to move the matrix,
// regenerate it with bench/tab7_fault_campaign in the same commit and say
// why.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/parser.h"
#include "src/scenario/runner.h"

namespace newtos::scenario {
namespace {

std::vector<Script> LoadTab7() {
  std::vector<Script> scripts;
  ParseError err;
  EXPECT_TRUE(LoadScriptDir(std::string(NEWTOS_SCENARIO_DIR) + "/tab7", &scripts, &err))
      << err.Format();
  return scripts;
}

Script Parse(const std::string& text, const std::string& file) {
  Script s;
  ParseError err;
  EXPECT_TRUE(ParseScript(text, file, &s, &err)) << err.Format();
  return s;
}

TEST(ScenarioCampaignTest, Tab7CsvMatchesGolden) {
  std::ifstream in(NEWTOS_TAB7_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << NEWTOS_TAB7_GOLDEN;
  const std::string golden((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  ScenarioRunner runner;
  std::vector<CampaignCell> cells;
  std::string error;
  ASSERT_TRUE(runner.RunCampaignOrder(LoadTab7(), &cells, &error)) << error;
  std::ostringstream csv;
  CampaignTable(cells).WriteCsv(csv);

  EXPECT_EQ(csv.str(), golden) << "the tab7 resilience matrix moved off " << NEWTOS_TAB7_GOLDEN;
}

TEST(ScenarioCampaignTest, RunCampaignOrderRejectsDifferingSweeps) {
  const std::string body =
      "seed 1\n"
      "inject chan_drop ip prob 0.01\n";
  const std::vector<Script> scripts = {
      Parse("scenario both\nfreq 3.6GHz 1.2GHz\n" + body, "both.nsc"),
      Parse("scenario fast_only\nfreq 3.6GHz\n" + body, "fast_only.nsc"),
  };
  ScenarioRunner runner;
  std::vector<CampaignCell> cells;
  std::string error;
  EXPECT_FALSE(runner.RunCampaignOrder(scripts, &cells, &error));
  EXPECT_TRUE(cells.empty()) << "nothing runs when the sweeps differ";
  EXPECT_NE(error.find("fast_only.nsc"), std::string::npos) << error;
}

TEST(ScenarioCampaignTest, ScriptExpectsAgreeWithTheCellJudge) {
  // Each tab7 script carries expect lines mirroring the campaign's judge;
  // running any one of them must pass both the judge and the expects.
  const std::vector<Script> scripts = LoadTab7();
  ASSERT_FALSE(scripts.empty());
  // One channel-fault and one server-fault representative keeps this quick;
  // the per-script ctest entries sweep the rest.
  for (size_t i : {size_t{0}, scripts.size() - 1}) {
    ScenarioRunner runner;
    const ScenarioOutcome o = runner.RunOne(scripts[i], scripts[i].freqs[0]);
    EXPECT_TRUE(o.cell.pass) << scripts[i].path;
    for (const ExpectResult& r : o.expects) {
      EXPECT_TRUE(r.pass) << scripts[i].path << ":" << r.line << ": " << r.what;
    }
  }
}

}  // namespace
}  // namespace newtos::scenario

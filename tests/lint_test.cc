// Per-rule regression tests for newtos_lint. Each fixture file under
// tests/lint_fixtures/ contains exactly one violation of exactly one rule
// (plus near-miss look-alikes that must NOT fire); the clean fixture
// contains none. The fixtures are lint *inputs*, never compiled — they are
// read as text through LINT_FIXTURE_DIR, which CMake points at the source
// tree so the binary works from any build directory.

#include "tools/lint/lint.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace newtos::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

// Enables every rule for the fixture pseudo-path, like the checked-in
// lint.toml does for src/.
Config AllRulesConfig() {
  const char* kToml =
      "[rule.heap-new]\npaths = [\"fixtures/\"]\n"
      "[rule.heap-make]\npaths = [\"fixtures/\"]\n"
      "[rule.std-function]\npaths = [\"fixtures/\"]\n"
      "[rule.banned-deque]\npaths = [\"fixtures/\"]\n"
      "[rule.map-iteration]\npaths = [\"fixtures/\"]\n"
      "[rule.wall-clock]\npaths = [\"fixtures/\"]\n"
      "[rule.runtime-clock]\npaths = [\"fixtures/\"]\n"
      "[rule.nondet-source]\npaths = [\"fixtures/\"]\n"
      "[rule.ptr-key-order]\npaths = [\"fixtures/\"]\n"
      "[rule.server-handle]\npaths = [\"fixtures/\"]\n"
      "[rule.ring-pow2]\npaths = [\"fixtures/\"]\n"
      "[rule.fabric-shared-state]\npaths = [\"fixtures/\"]\n"
      "[rule.flow-timer]\npaths = [\"fixtures/\"]\n"
      "[rule.scenario-literals]\npaths = [\"fixtures/\"]\n"
      "[rule.blocking-push]\npaths = [\"fixtures/\"]\n";
  Config config;
  std::string error;
  EXPECT_TRUE(ParseConfig(kToml, &config, &error)) << error;
  return config;
}

std::vector<Diagnostic> LintFixture(const std::string& name, const Config& config) {
  std::vector<Diagnostic> diags;
  LintFileText("fixtures/" + name, ReadFixture(name), "", config, &diags);
  return diags;
}

struct RuleCase {
  const char* fixture;
  const char* rule;
};

class LintRule : public ::testing::TestWithParam<RuleCase> {};

// With every rule enabled, each fixture must produce exactly one diagnostic,
// and it must carry the expected rule id — proving both that the rule fires
// and that the fixture's look-alikes fool no other rule.
TEST_P(LintRule, FixtureFailsWithExpectedRuleOnly) {
  const RuleCase& c = GetParam();
  const std::vector<Diagnostic> diags = LintFixture(c.fixture, AllRulesConfig());
  ASSERT_EQ(diags.size(), 1u) << "fixture " << c.fixture;
  EXPECT_EQ(diags[0].rule, c.rule);
  EXPECT_FALSE(diags[0].waived);
  EXPECT_GT(diags[0].line, 0);
  EXPECT_EQ(diags[0].file, std::string("fixtures/") + c.fixture);
  EXPECT_FALSE(diags[0].message.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintRule,
    ::testing::Values(RuleCase{"heap_new.cc", "heap-new"},
                      RuleCase{"heap_make.cc", "heap-make"},
                      RuleCase{"std_function.cc", "std-function"},
                      RuleCase{"banned_deque.cc", "banned-deque"},
                      RuleCase{"map_iteration.cc", "map-iteration"},
                      RuleCase{"wall_clock.cc", "wall-clock"},
                      RuleCase{"runtime_clock.cc", "runtime-clock"},
                      RuleCase{"nondet_source.cc", "nondet-source"},
                      RuleCase{"ptr_key_order.cc", "ptr-key-order"},
                      RuleCase{"server_handle.h", "server-handle"},
                      RuleCase{"ring_pow2.cc", "ring-pow2"},
                      RuleCase{"fabric_static.cc", "fabric-shared-state"},
                      RuleCase{"flow_timer.cc", "flow-timer"},
                      RuleCase{"scenario_literals.cc", "scenario-literals"},
                      RuleCase{"blocking_push.cc", "blocking-push"}),
    [](const ::testing::TestParamInfo<RuleCase>& param) {
      std::string name = param.param.rule;
      for (char& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

TEST(Lint, CleanFixtureHasNoDiagnostics) {
  const std::vector<Diagnostic> diags = LintFixture("clean.cc", AllRulesConfig());
  EXPECT_TRUE(diags.empty());
}

TEST(Lint, UnsanctionedPushFiresExactlyOnce) {
  // With blocking-push alone on, the spin loop fires once, unwaived, on its
  // own line; the retry, drain and comment look-alikes stay silent.
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[rule.blocking-push]\npaths = [\"fixtures/\"]\n", &config, &error))
      << error;
  const std::vector<Diagnostic> diags = LintFixture("blocking_push.cc", config);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "blocking-push");
  EXPECT_FALSE(diags[0].waived);
  EXPECT_EQ(diags[0].line, 12);
}

TEST(Lint, RuleScopingRestrictsByPathPrefix) {
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[rule.heap-new]\npaths = [\"src/\"]\n", &config, &error)) << error;
  const std::string text = ReadFixture("heap_new.cc");

  std::vector<Diagnostic> in_scope;
  LintFileText("src/foo.cc", text, "", config, &in_scope);
  ASSERT_EQ(in_scope.size(), 1u);

  std::vector<Diagnostic> out_of_scope;
  LintFileText("bench/foo.cc", text, "", config, &out_of_scope);
  EXPECT_TRUE(out_of_scope.empty());
}

TEST(Lint, InlineWaiverMarksDiagnosticWaived) {
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[rule.heap-new]\npaths = [\"\"]\n", &config, &error)) << error;
  const std::string text =
      "struct W {};\n"
      "W* Make() {\n"
      "  return new W();  // lint:allow(heap-new): fixture waiver\n"
      "}\n";
  std::vector<Diagnostic> diags;
  LintFileText("x.cc", text, "", config, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(diags[0].waived);
  EXPECT_EQ(diags[0].waive_reason, "fixture waiver");
}

TEST(Lint, InlineWaiverOnLineAboveAlsoCovers) {
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[rule.heap-new]\npaths = [\"\"]\n", &config, &error)) << error;
  const std::string text =
      "struct W {};\n"
      "// lint:allow(heap-new): declared the line above\n"
      "W* w = new W();\n";
  std::vector<Diagnostic> diags;
  LintFileText("x.cc", text, "", config, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(diags[0].waived);
}

TEST(Lint, WaiverForOneRuleDoesNotCoverAnother) {
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[rule.heap-new]\npaths = [\"\"]\n", &config, &error)) << error;
  const std::string text = "struct W {};\nW* w = new W();  // lint:allow(heap-make): wrong rule\n";
  std::vector<Diagnostic> diags;
  LintFileText("x.cc", text, "", config, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_FALSE(diags[0].waived);
}

TEST(Lint, AllowlistEntryWaivesAndIsMarkedUsed) {
  Config config;
  std::string error;
  const char* kToml =
      "[rule.heap-new]\npaths = [\"fixtures/\"]\n"
      "[[allow]]\nrule = \"heap-new\"\npath = \"fixtures/heap_new.cc\"\n"
      "reason = \"fixture exercises the allowlist\"\n";
  ASSERT_TRUE(ParseConfig(kToml, &config, &error)) << error;
  const std::vector<Diagnostic> diags = LintFixture("heap_new.cc", config);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(diags[0].waived);
  EXPECT_EQ(diags[0].waive_reason, "fixture exercises the allowlist");
  ASSERT_EQ(config.allows.size(), 1u);
  EXPECT_TRUE(config.allows[0].used);
}

TEST(Lint, ConfigRejectsAllowWithoutReason) {
  Config config;
  std::string error;
  const char* kToml = "[[allow]]\nrule = \"heap-new\"\npath = \"src/foo.cc\"\n";
  EXPECT_FALSE(ParseConfig(kToml, &config, &error));
  EXPECT_NE(error.find("no reason"), std::string::npos) << error;
}

TEST(Lint, ConfigRejectsAllowWithoutPath) {
  Config config;
  std::string error;
  const char* kToml = "[[allow]]\nrule = \"heap-new\"\nreason = \"because\"\n";
  EXPECT_FALSE(ParseConfig(kToml, &config, &error));
}

TEST(Lint, ConfigRejectsUnknownTable) {
  Config config;
  std::string error;
  EXPECT_FALSE(ParseConfig("[mystery]\nkey = \"v\"\n", &config, &error));
  EXPECT_NE(error.find("unknown table"), std::string::npos) << error;
}

TEST(Lint, DisabledRuleNeverFires) {
  // A rule absent from the config is off even on matching text.
  Config config;  // empty: no scopes at all
  std::vector<Diagnostic> diags;
  LintFileText("fixtures/heap_new.cc", ReadFixture("heap_new.cc"), "", config, &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(Lint, SiblingHeaderMapDeclarationIsCorrelated) {
  // map-iteration must see a member declared in the .h when linting the .cc.
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[rule.map-iteration]\npaths = [\"\"]\n", &config, &error)) << error;
  const std::string header = "#include <map>\nstruct S {\n  std::map<int, int> members_;\n};\n";
  const std::string source =
      "void S::Walk() {\n"
      "  for (const auto& kv : members_) {\n"
      "    (void)kv;\n"
      "  }\n"
      "}\n";
  std::vector<Diagnostic> diags;
  LintFileText("x.cc", source, header, config, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "map-iteration");
}

TEST(Lint, BannedWordInStringLiteralDoesNotFire) {
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[rule.wall-clock]\npaths = [\"\"]\n", &config, &error)) << error;
  const std::string text = "const char* kDoc = \"steady_clock is banned here\";\n";
  std::vector<Diagnostic> diags;
  LintFileText("x.cc", text, "", config, &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(Lint, CheckedInConfigParsesAndTreeIsCleanUnderIt) {
  // The repo's own lint.toml must stay parseable, and the real tree must lint
  // clean under it — the same gate CI runs, reachable from the test suite.
  Config config;
  std::string error;
  ASSERT_TRUE(LoadConfig(std::string(LINT_REPO_ROOT) + "/tools/lint/lint.toml", &config, &error))
      << error;
  std::vector<Diagnostic> diags;
  ASSERT_TRUE(LintTree(LINT_REPO_ROOT, config, &diags, &error)) << error;
  for (const Diagnostic& d : diags) {
    EXPECT_TRUE(d.waived) << d.file << ":" << d.line << " [" << d.rule << "] " << d.message;
    // No producer in src/ spins on a ring, and no waiver lets one in.
    EXPECT_NE(d.rule, "blocking-push") << d.file << ":" << d.line << " is a spin site";
  }
}

}  // namespace
}  // namespace newtos::lint

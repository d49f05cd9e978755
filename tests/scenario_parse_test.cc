// Parser ergonomics: every malformed directive must fail with file:line:col,
// the offending token, and a usable one-line hint — and garbage input must
// never crash or parse silently.

#include <gtest/gtest.h>

#include <string>

#include "src/scenario/defaults.h"
#include "src/scenario/parser.h"

namespace newtos::scenario {
namespace {

// Parses `body` appended to a valid scenario header, expecting failure, and
// returns the error for inspection.
ParseError FailAt(const std::string& body) {
  Script s;
  ParseError err;
  const bool ok = ParseScript("scenario t\n" + body + "\n", "t.nsc", &s, &err);
  EXPECT_FALSE(ok) << "accepted: " << body;
  EXPECT_FALSE(err.message.empty());
  return err;
}

Script ParseOk(const std::string& body) {
  Script s;
  ParseError err;
  const bool ok = ParseScript("scenario t\n" + body + "\n", "t.nsc", &s, &err);
  EXPECT_TRUE(ok) << err.Format();
  return s;
}

TEST(ScenarioParse, FullScriptCompiles) {
  Script s;
  ParseError err;
  const std::string text =
      "# comment\n"
      "scenario wan_all   # trailing comment\n"
      "seed 42\n"
      "freq 3.6GHz 1.2GHz\n"
      "app_freq 900MHz\n"
      "warmup 30ms\n"
      "run_for 250ms\n"
      "measure_at 90ms\n"
      "recovery_bound 100ms\n"
      "burst 256KiB\n"
      "connections 4\n"
      "tcp sack off\n"
      "tcp tlp on\n"
      "tcp rto_min 10ms\n"
      "link rtt 40ms\n"
      "link loss 0.01 seed 7\n"
      "link rate 10Gbps\n"
      "link queue 256\n"
      "link reorder 0.02 500us\n"
      "watchdog on interval 2ms misses 3\n"
      "checkpoint on\n"
      "trace on\n"
      "inject chan_drop ip prob 0.01\n"
      "at 100ms until 200ms inject chan_dup tcp prob 0.02\n"
      "at 90ms inject crash ip\n"
      "at 150ms set freq 1.2GHz\n"
      "expect injected\n"
      "expect detected\n"
      "expect recovered within 100ms\n"
      "expect integrity\n"
      "expect progress\n"
      "expect delivered >= 64KiB by 200ms\n"
      "expect digest 0x9ae16a3b2f90404f\n"
      "expect counter retransmits > 0\n"
      "expect counter chan_drops in 1..5000\n";
  ASSERT_TRUE(ParseScript(text, "wan_all.nsc", &s, &err)) << err.Format();

  EXPECT_EQ(s.name, "wan_all");
  EXPECT_EQ(s.seed, 42u);
  ASSERT_EQ(s.freqs.size(), 2u);
  EXPECT_EQ(s.freqs[0], 3'600'000 * kKhz);
  EXPECT_EQ(s.freqs[1], 1'200'000 * kKhz);
  EXPECT_EQ(s.app_freq, 900'000 * kKhz);
  EXPECT_EQ(s.warmup, 30 * kMillisecond);
  EXPECT_EQ(s.run_for, 250 * kMillisecond);
  EXPECT_EQ(s.measure_at, 90 * kMillisecond);
  EXPECT_EQ(s.burst_bytes, 256u * 1024u);
  EXPECT_EQ(s.connections, 4);
  EXPECT_EQ(s.tcp_sack, std::optional<bool>(false));
  EXPECT_EQ(s.tcp_tlp, std::optional<bool>(true));
  EXPECT_EQ(s.tcp_rto_min, std::optional<SimTime>(10 * kMillisecond));
  EXPECT_EQ(s.link.rtt, 40 * kMillisecond);
  EXPECT_DOUBLE_EQ(s.link.loss, 0.01);
  EXPECT_EQ(s.link.loss_seed, 7u);
  EXPECT_DOUBLE_EQ(s.link.rate_gbps, 10.0);
  EXPECT_EQ(s.link.queue_slots, 256u);
  EXPECT_DOUBLE_EQ(s.link.reorder_prob, 0.02);
  EXPECT_EQ(s.link.reorder_delay, 500 * kMicrosecond);
  EXPECT_TRUE(s.watchdog);
  EXPECT_EQ(s.watchdog_params.heartbeat_interval, 2 * kMillisecond);
  EXPECT_EQ(s.watchdog_params.miss_threshold, 3);
  EXPECT_TRUE(s.checkpoint);
  EXPECT_TRUE(s.trace);

  ASSERT_EQ(s.injects.size(), 3u);
  EXPECT_EQ(s.injects[0].cls, FaultClass::kChanDrop);
  EXPECT_EQ(s.injects[0].target, "ip");
  EXPECT_DOUBLE_EQ(s.injects[0].probability, 0.01);
  EXPECT_EQ(s.injects[0].from, 0);
  EXPECT_EQ(s.injects[0].until, 0);
  EXPECT_EQ(s.injects[1].cls, FaultClass::kChanDuplicate);
  EXPECT_EQ(s.injects[1].from, 100 * kMillisecond);
  EXPECT_EQ(s.injects[1].until, 200 * kMillisecond);
  EXPECT_EQ(s.injects[2].cls, FaultClass::kServerCrash);
  EXPECT_EQ(s.injects[2].at, 90 * kMillisecond);

  ASSERT_EQ(s.freq_steps.size(), 1u);
  EXPECT_EQ(s.freq_steps[0].at, 150 * kMillisecond);
  EXPECT_EQ(s.freq_steps[0].freq, 1'200'000 * kKhz);

  ASSERT_EQ(s.expects.size(), 9u);
  EXPECT_EQ(s.expects[2].kind, ExpectCheck::Kind::kRecoveredWithin);
  EXPECT_EQ(s.expects[2].bound, 100 * kMillisecond);
  EXPECT_EQ(s.expects[5].kind, ExpectCheck::Kind::kDelivered);
  EXPECT_EQ(s.expects[5].value, 64u * 1024u);
  EXPECT_EQ(s.expects[5].deadline, 200 * kMillisecond);
  EXPECT_EQ(s.expects[6].kind, ExpectCheck::Kind::kDigest);
  EXPECT_EQ(s.expects[6].value, 0x9ae16a3b2f90404fULL);
  EXPECT_EQ(s.expects[7].kind, ExpectCheck::Kind::kCounter);
  EXPECT_EQ(s.expects[7].op, ExpectCheck::Op::kGt);
  EXPECT_EQ(s.expects[8].op, ExpectCheck::Op::kIn);
  EXPECT_EQ(s.expects[8].value, 1u);
  EXPECT_EQ(s.expects[8].high, 5000u);
  // Every expect remembers its source line for failure reporting.
  EXPECT_EQ(s.expects[0].line, 27);
}

TEST(ScenarioParse, DefaultsApplyWhenUnset) {
  const Script s = ParseOk("run_for 10ms");
  EXPECT_EQ(s.seed, scenario_defaults::kSeed);
  ASSERT_EQ(s.freqs.size(), 1u);
  EXPECT_EQ(s.freqs[0], scenario_defaults::kStackFreq);
  EXPECT_EQ(s.warmup, scenario_defaults::kWarmup);
  EXPECT_EQ(s.burst_bytes, scenario_defaults::kBurstBytes);
  EXPECT_FALSE(s.watchdog);
  EXPECT_FALSE(s.trace);
}

// --- structural errors ------------------------------------------------------

TEST(ScenarioParse, EmptyScriptFails) {
  Script s;
  ParseError err;
  EXPECT_FALSE(ParseScript("", "", &s, &err));
  EXPECT_NE(err.message.find("no `scenario` directive"), std::string::npos);
  // Memory-parsed scripts report "<memory>" instead of a path.
  EXPECT_NE(err.Format().find("<memory>"), std::string::npos);
}

TEST(ScenarioParse, ScenarioMustComeFirst) {
  Script s;
  ParseError err;
  EXPECT_FALSE(ParseScript("seed 1\nscenario late\n", "t.nsc", &s, &err));
  EXPECT_EQ(err.line, 1);
  EXPECT_NE(err.message.find("first directive"), std::string::npos);
}

TEST(ScenarioParse, DuplicateScenarioFails) {
  const ParseError err = FailAt("scenario again");
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("duplicate"), std::string::npos);
}

TEST(ScenarioParse, UnknownDirectiveNamesItAndListsAll) {
  const ParseError err = FailAt("frobnicate 3");
  EXPECT_EQ(err.line, 2);
  EXPECT_EQ(err.col, 1);
  EXPECT_EQ(err.token, "frobnicate");
  EXPECT_NE(err.hint.find("directives:"), std::string::npos);
}

TEST(ScenarioParse, ErrorFormatHasFileLineColTokenAndHint) {
  Script s;
  ParseError err;
  ASSERT_FALSE(ParseScript("scenario t\nwarmup banana\n", "path/x.nsc", &s, &err));
  EXPECT_EQ(err.file, "path/x.nsc");
  EXPECT_EQ(err.line, 2);
  EXPECT_EQ(err.col, 8);  // column of the bad value, not the directive
  EXPECT_EQ(err.token, "banana");
  const std::string f = err.Format();
  EXPECT_NE(f.find("path/x.nsc:2:8: error:"), std::string::npos);
  EXPECT_NE(f.find("near 'banana'"), std::string::npos);
  EXPECT_NE(f.find("hint:"), std::string::npos);
}

TEST(ScenarioParse, TrailingTokensRejected) {
  const ParseError err = FailAt("seed 1 extra");
  EXPECT_EQ(err.token, "extra");
  EXPECT_NE(err.message.find("trailing"), std::string::npos);
}

TEST(ScenarioParse, MissingArgumentPointsPastLineEnd) {
  const ParseError err = FailAt("warmup");
  EXPECT_EQ(err.line, 2);
  EXPECT_EQ(err.token, "");
  EXPECT_EQ(err.col, 7);  // one past "warmup"
  EXPECT_NE(err.message.find("missing"), std::string::npos);
}

// --- value errors -----------------------------------------------------------

TEST(ScenarioParse, BadValuesFailWithHints) {
  EXPECT_NE(FailAt("seed -3").message.find("non-negative integer"), std::string::npos);
  EXPECT_NE(FailAt("freq fast").message.find("frequency"), std::string::npos);
  EXPECT_NE(FailAt("freq 0GHz").message.find("frequency"), std::string::npos);
  EXPECT_NE(FailAt("run_for 5miles").message.find("duration"), std::string::npos);
  EXPECT_NE(FailAt("burst 5lbs").message.find("byte size"), std::string::npos);
  EXPECT_NE(FailAt("connections 2000000001").message.find("implausibly large"),
            std::string::npos);
  EXPECT_NE(FailAt("checkpoint maybe").message.find("'on' or 'off'"), std::string::npos);
  EXPECT_NE(FailAt("watchdog on interval never").message.find("duration"), std::string::npos);
  EXPECT_NE(FailAt("watchdog on bark").message.find("unknown watchdog option"),
            std::string::npos);
}

TEST(ScenarioParse, TopologyErrors) {
  EXPECT_NE(FailAt("topology mesh").message.find("unknown topology"), std::string::npos);
  EXPECT_NE(FailAt("topology incast").message.find("expected 'clients'"), std::string::npos);
  EXPECT_NE(FailAt("topology incast clients 0").message.find("at least one client"),
            std::string::npos);
}

// LaneEngine starts lanes - 1 OS threads, so a script's lane count is
// bounded at the lane token before anything is built: at most clients + 1
// (a lane past that holds no host) and at most kMaxIncastLanes.
TEST(ScenarioParse, IncastLaneCountIsBounded) {
  const ParseError past_clients = FailAt("topology incast clients 4 lanes 6");
  EXPECT_EQ(past_clients.file, "t.nsc");
  EXPECT_EQ(past_clients.line, 2);
  EXPECT_EQ(past_clients.col, 33);
  EXPECT_EQ(past_clients.token, "6");
  EXPECT_NE(past_clients.message.find("exceeds clients + 1 = 5"), std::string::npos);
  EXPECT_NE(FailAt("topology incast clients 1000 lanes 65").message.find("limit of 64"),
            std::string::npos);
  EXPECT_NE(FailAt("topology incast clients 4 lanes 0").message.find("at least 1"),
            std::string::npos);
  EXPECT_EQ(ParseOk("topology incast clients 4 lanes 5").lanes, 5);
  EXPECT_EQ(ParseOk("topology incast clients 1000 lanes 64").lanes, 64);
}

TEST(ScenarioParse, TcpAndLinkKnobErrors) {
  EXPECT_NE(FailAt("tcp nagle on").message.find("unknown tcp knob"), std::string::npos);
  EXPECT_NE(FailAt("tcp rto_min big").message.find("duration"), std::string::npos);
  EXPECT_NE(FailAt("link mtu 9000").message.find("unknown link knob"), std::string::npos);
  EXPECT_NE(FailAt("link loss 1.5").message.find("[0, 1]"), std::string::npos);
  EXPECT_NE(FailAt("link rate 10").message.find("10Gbps"), std::string::npos);
  EXPECT_NE(FailAt("link reorder 0.02").message.find("missing"), std::string::npos);
}

// --- inject errors ----------------------------------------------------------

TEST(ScenarioParse, InjectErrors) {
  EXPECT_NE(FailAt("inject meteor ip").message.find("unknown fault class"), std::string::npos);
  EXPECT_NE(FailAt("inject chan_drop").message.find("missing target"), std::string::npos);
  EXPECT_NE(FailAt("inject chan_drop ip").message.find("trial probability"), std::string::npos);
  EXPECT_NE(FailAt("inject chan_drop ip prob 2").message.find("[0, 1]"), std::string::npos);
  EXPECT_NE(FailAt("inject chan_drop ip prob 0.1 loudly").message.find("unknown inject option"),
            std::string::npos);
  // Wire faults take no target; a stray one reads as a bad option.
  EXPECT_NE(FailAt("inject wire_flip ip prob 0.1").message.find("unknown inject option"),
            std::string::npos);
  EXPECT_NE(FailAt("inject crash ip").message.find("trigger time"), std::string::npos);
  EXPECT_NE(FailAt("at 10ms until 20ms inject crash ip").message.find("one-shot"),
            std::string::npos);
}

TEST(ScenarioParse, AtDirectiveErrors) {
  EXPECT_NE(FailAt("at 0ms inject crash ip").message.find("positive"), std::string::npos);
  EXPECT_NE(FailAt("at 20ms until 10ms inject chan_drop ip prob 0.1")
                .message.find("`until` must come after"),
            std::string::npos);
  EXPECT_NE(FailAt("at 10ms until 20ms set freq 1.2GHz").message.find("point action"),
            std::string::npos);
  EXPECT_NE(FailAt("at 10ms dance").message.find("expected `inject` or `set`"),
            std::string::npos);
}

// --- expect errors ----------------------------------------------------------

TEST(ScenarioParse, ExpectErrors) {
  EXPECT_NE(FailAt("expect victory").message.find("unknown expectation"), std::string::npos);
  EXPECT_NE(FailAt("expect recovered").message.find("expected 'within'"), std::string::npos);
  EXPECT_NE(FailAt("expect delivered 5KB").message.find("expected '>='"), std::string::npos);
  EXPECT_NE(FailAt("expect digest zzz").message.find("hex digest"), std::string::npos);
  EXPECT_NE(FailAt("expect digest 0x12345678123456781").message.find("hex digest"),
            std::string::npos);
  EXPECT_NE(FailAt("expect counter bogons > 0").message.find("unknown counter"),
            std::string::npos);
  EXPECT_NE(FailAt("expect counter retransmits ~ 5").message.find("unknown comparison"),
            std::string::npos);
  EXPECT_NE(FailAt("expect counter retransmits in 9..3").message.find("lo <= hi"),
            std::string::npos);
  EXPECT_NE(FailAt("expect counter retransmits in banana").message.find("lo <= hi"),
            std::string::npos);
  EXPECT_NE(FailAt("expect integrity badly").message.find("trailing"), std::string::npos);
  // The unknown-counter hint enumerates the whole legal set.
  EXPECT_NE(FailAt("expect counter bogons > 0").hint.find("retransmits"), std::string::npos);
}

// --- cross-directive validation --------------------------------------------

TEST(ScenarioParse, ValidationErrors) {
  EXPECT_NE(FailAt("topology incast clients 4\ninject chan_drop ip prob 0.1")
                .message.find("p2p-only"),
            std::string::npos);
  EXPECT_NE(FailAt("topology incast clients 4\nwatchdog on").message.find("p2p-only"),
            std::string::npos);
  EXPECT_NE(FailAt("topology incast clients 4\ntrace on").message.find("p2p-only"),
            std::string::npos);
  EXPECT_NE(FailAt("expect detected").message.find("watchdog on"), std::string::npos);
  EXPECT_NE(FailAt("expect injected").message.find("without any `inject`"), std::string::npos);
  EXPECT_NE(FailAt("warmup 10ms\nrun_for 10ms\nexpect delivered >= 1 by 30ms")
                .message.find("past the end"),
            std::string::npos);
  EXPECT_NE(FailAt("warmup 10ms\nrun_for 10ms\nat 30ms inject crash ip")
                .message.find("past the end"),
            std::string::npos);
}

TEST(ScenarioParse, IncastRejectsCountersItDoesNotMeasure) {
  // The expect precedes `topology`, so the error is only knowable once the
  // whole script is read; it still points at the counter name.
  const ParseError err =
      FailAt("expect counter link_loss_drops == 0\ntopology incast clients 4");
  EXPECT_EQ(err.file, "t.nsc");
  EXPECT_EQ(err.line, 2);
  EXPECT_EQ(err.col, 16);
  EXPECT_EQ(err.token, "link_loss_drops");
  EXPECT_NE(err.message.find("not measured by `topology incast`"), std::string::npos);
  EXPECT_NE(err.hint.find("retransmits"), std::string::npos);
  EXPECT_NE(err.Format().find("t.nsc:2:16: error:"), std::string::npos);
  for (const char* name : {"chan_drops", "wire_flips", "injected", "chunks", "detections"}) {
    EXPECT_NE(FailAt("topology incast clients 4\nexpect counter " + std::string(name) + " == 0")
                  .message.find("not measured"),
              std::string::npos)
        << name;
  }
  // Counters the rig measures stay legal, and p2p accepts every counter.
  for (const char* name : kIncastCounterNames) {
    ParseOk("topology incast clients 4\nexpect counter " + std::string(name) + " >= 0");
  }
  ParseOk("expect counter link_loss_drops == 0");
}

TEST(ScenarioParse, IncastRejectsDeliveryDeadline) {
  // The incast rig samples delivery only at the end of the run, so a `by`
  // deadline there would be judged at the wrong time. Either order of the
  // two directives fails, pointing at the expect.
  const ParseError err = FailAt("topology incast clients 4\nexpect delivered >= 1KB by 100ms");
  EXPECT_EQ(err.line, 3);
  EXPECT_NE(err.message.find("p2p-only"), std::string::npos);
  EXPECT_NE(err.hint.find("drop `by <dur>`"), std::string::npos);
  EXPECT_EQ(FailAt("expect delivered >= 1KB by 100ms\ntopology incast clients 4").line, 2);
  ParseOk("topology incast clients 4\nexpect delivered >= 1KB");
  ParseOk("expect delivered >= 1KB by 100ms");
}

TEST(ScenarioParse, ChanDelayWithoutDelayTakesTheDefault) {
  const Script s =
      ParseOk("inject chan_delay ip prob 0.1\ninject chan_delay tcp prob 0.1 delay 1ms");
  ASSERT_EQ(s.injects.size(), 2u);
  EXPECT_EQ(s.injects[0].delay, scenario_defaults::kChanDelay);
  EXPECT_EQ(s.injects[1].delay, 1 * kMillisecond);
  // The default is the delay every checked-in chan_delay script states
  // (`delay 200us`), so a script may drop it without moving its results.
  EXPECT_EQ(scenario_defaults::kChanDelay, 200 * kMicrosecond);
}

TEST(ScenarioParse, WatchdogExpectsAcceptedWhenWatchdogOn) {
  const Script s = ParseOk(
      "watchdog on\nat 10ms inject crash ip\nexpect detected\nexpect recovered within 50ms");
  EXPECT_EQ(s.expects.size(), 2u);
}

// --- garbage must neither crash nor pass ------------------------------------

TEST(ScenarioParse, FuzzGarbageNeverCrashesNeverAcceptsSilently) {
  // Deterministic xorshift so failures reproduce.
  uint64_t x = 0x243f6a8885a308d3ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 .#\t=<>!_-\nGHzmskKiB\x01\x7f\xff";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = trial % 2 == 0 ? "scenario fuzz\n" : "";
    const int len = static_cast<int>(next() % 160);
    for (int i = 0; i < len; ++i) {
      text += alphabet[next() % (sizeof(alphabet) - 1)];
    }
    Script s;
    ParseError err;
    const bool ok = ParseScript(text, "fuzz.nsc", &s, &err);
    if (!ok) {
      // Rejections must carry a located, formatted error.
      EXPECT_FALSE(err.message.empty());
      EXPECT_GE(err.line, 0);
      EXPECT_FALSE(err.Format().empty());
    } else {
      // Anything accepted must have parsed the mandatory header for real.
      EXPECT_FALSE(s.name.empty());
      EXPECT_FALSE(s.freqs.empty());
    }
  }
}

TEST(ScenarioParse, TruncatedDirectivePrefixesAllFail) {
  // Every prefix of a known-good line must be a clean diagnostic, not a crash
  // or a silent half-parse.
  const std::string good = "at 100ms until 200ms inject chan_dup tcp prob 0.02 delay 1ms";
  for (size_t cut = 1; cut < good.size(); ++cut) {
    const std::string prefix = good.substr(0, cut);
    Script s;
    ParseError err;
    const bool ok = ParseScript("scenario t\n" + prefix + "\n", "t.nsc", &s, &err);
    if (ok) {
      // A parseable prefix must have been a complete directive: the inject
      // compiled with its window and a probability, nothing half-read.
      ASSERT_EQ(s.injects.size(), 1u) << "half-parse of: " << prefix;
      EXPECT_EQ(s.injects[0].from, 100 * kMillisecond);
      EXPECT_EQ(s.injects[0].until, 200 * kMillisecond);
      EXPECT_GE(s.injects[0].probability, 0.0);
    } else {
      EXPECT_FALSE(err.message.empty()) << "silent failure on: " << prefix;
    }
  }
}

TEST(ScenarioParse, LoadScriptMissingFileFails) {
  Script s;
  ParseError err;
  EXPECT_FALSE(LoadScript("/nonexistent/nope.nsc", &s, &err));
  EXPECT_NE(err.message.find("cannot open"), std::string::npos);
}

TEST(ScenarioParse, LoadScriptDirMissingDirFails) {
  std::vector<Script> scripts;
  ParseError err;
  EXPECT_FALSE(LoadScriptDir("/nonexistent/dir", &scripts, &err));
  EXPECT_NE(err.message.find("cannot list"), std::string::npos);
}

}  // namespace
}  // namespace newtos::scenario

#include "src/scenario/parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/fabric/incast.h"

namespace newtos::scenario {

namespace {

struct Token {
  std::string text;
  int col = 0;  // 1-based
};

// One line of the script split into whitespace-separated tokens; everything
// from '#' on is comment.
std::vector<Token> Tokenize(const std::string& line) {
  std::vector<Token> toks;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
    if (i >= line.size() || line[i] == '#') {
      break;
    }
    const size_t b = i;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])) == 0 &&
           line[i] != '#') {
      ++i;
    }
    toks.push_back({line.substr(b, i - b), static_cast<int>(b) + 1});
  }
  return toks;
}

// Cursor over one line's tokens, accumulating the first error. Every Take*
// helper returns false after a failure, so directive handlers read linearly
// and bail once.
class Line {
 public:
  Line(const std::string& file, int line_no, std::vector<Token> toks, ParseError* err)
      : file_(file), line_no_(line_no), toks_(std::move(toks)), err_(err) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ >= toks_.size(); }
  const std::string& Peek() const {
    static const std::string kEmpty;
    return AtEnd() ? kEmpty : toks_[pos_].text;
  }

  // Consumes the next token if it equals `word`.
  bool Accept(const std::string& word) {
    if (!ok_ || AtEnd() || toks_[pos_].text != word) {
      return false;
    }
    ++pos_;
    return true;
  }

  bool Take(std::string* out, const std::string& what, const std::string& hint) {
    if (!ok_) {
      return false;
    }
    if (AtEnd()) {
      return Fail("missing " + what, hint);
    }
    *out = toks_[pos_].text;
    ++pos_;
    return true;
  }

  bool Expect(const std::string& word, const std::string& hint) {
    if (!ok_) {
      return false;
    }
    if (AtEnd() || toks_[pos_].text != word) {
      return Fail("expected '" + word + "'", hint);
    }
    ++pos_;
    return true;
  }

  // Fails on trailing tokens — a misspelled option must not parse silently.
  bool Finish(const std::string& hint) {
    if (!ok_) {
      return false;
    }
    if (!AtEnd()) {
      return Fail("unexpected trailing token", hint);
    }
    return true;
  }

  bool Fail(const std::string& message, const std::string& hint) {
    if (!ok_) {
      return false;
    }
    ok_ = false;
    err_->file = file_;
    err_->line = line_no_;
    if (AtEnd()) {
      err_->col = toks_.empty() ? 1 : toks_.back().col + static_cast<int>(toks_.back().text.size());
      err_->token = "";
    } else {
      err_->col = toks_[pos_].col;
      err_->token = toks_[pos_].text;
    }
    err_->message = message;
    err_->hint = hint;
    return false;
  }

  // Column of the previously-consumed token (1 before any).
  int PrevCol() const { return pos_ == 0 ? 1 : toks_[pos_ - 1].col; }

  // Like Fail but blames the previously-consumed token (value parse errors).
  bool FailPrev(const std::string& message, const std::string& hint) {
    if (!ok_ || pos_ == 0) {
      return Fail(message, hint);
    }
    --pos_;
    return Fail(message, hint);
  }

  // --- typed argument parsers -------------------------------------------

  bool TakeU64(uint64_t* out, const std::string& what, const std::string& hint) {
    std::string s;
    if (!Take(&s, what, hint)) {
      return false;
    }
    if (!ParseU64(s, out)) {
      return FailPrev(what + " must be a non-negative integer", hint);
    }
    return true;
  }

  bool TakeInt(int* out, const std::string& what, const std::string& hint) {
    uint64_t v = 0;
    if (!TakeU64(&v, what, hint)) {
      return false;
    }
    if (v > 1'000'000'000ULL) {
      return FailPrev(what + " is implausibly large", hint);
    }
    *out = static_cast<int>(v);
    return true;
  }

  bool TakeDuration(SimTime* out, const std::string& what, const std::string& hint) {
    std::string s;
    if (!Take(&s, what, hint)) {
      return false;
    }
    if (!ParseDuration(s, out)) {
      return FailPrev(what + " must be a duration like 250ms, 90us or 1s", hint);
    }
    return true;
  }

  bool TakeFreq(FreqKhz* out, const std::string& what, const std::string& hint) {
    std::string s;
    if (!Take(&s, what, hint)) {
      return false;
    }
    if (!ParseFreq(s, out)) {
      return FailPrev(what + " must be a frequency like 3.6GHz, 900MHz or 1200000kHz", hint);
    }
    return true;
  }

  bool TakeSize(uint64_t* out, const std::string& what, const std::string& hint) {
    std::string s;
    if (!Take(&s, what, hint)) {
      return false;
    }
    if (!ParseSize(s, out)) {
      return FailPrev(what + " must be a byte size like 256KiB, 1MB or 1460", hint);
    }
    return true;
  }

  bool TakeProb(double* out, const std::string& what, const std::string& hint) {
    std::string s;
    if (!Take(&s, what, hint)) {
      return false;
    }
    if (!ParseDouble(s, out) || *out < 0.0 || *out > 1.0) {
      return FailPrev(what + " must be a probability in [0, 1]", hint);
    }
    return true;
  }

  bool TakeOnOff(bool* out, const std::string& what, const std::string& hint) {
    std::string s;
    if (!Take(&s, what, hint)) {
      return false;
    }
    if (s == "on") {
      *out = true;
    } else if (s == "off") {
      *out = false;
    } else {
      return FailPrev(what + " must be 'on' or 'off'", hint);
    }
    return true;
  }

  bool TakeHex(uint64_t* out, const std::string& what, const std::string& hint) {
    std::string s;
    if (!Take(&s, what, hint)) {
      return false;
    }
    std::string h = s;
    if (h.size() > 2 && h[0] == '0' && (h[1] == 'x' || h[1] == 'X')) {
      h = h.substr(2);
    }
    if (h.empty() || h.size() > 16) {
      return FailPrev(what + " must be a hex digest like 0x9ae16a3b2f90404f", hint);
    }
    uint64_t v = 0;
    for (char c : h) {
      const char lc = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      int d;
      if (lc >= '0' && lc <= '9') {
        d = lc - '0';
      } else if (lc >= 'a' && lc <= 'f') {
        d = lc - 'a' + 10;
      } else {
        return FailPrev(what + " must be a hex digest like 0x9ae16a3b2f90404f", hint);
      }
      v = (v << 4) | static_cast<uint64_t>(d);
    }
    *out = v;
    return true;
  }

  // --- raw value parsers ------------------------------------------------

  static bool ParseU64(std::string s, uint64_t* out) {
    s.erase(std::remove(s.begin(), s.end(), '\''), s.end());
    if (s.empty()) {
      return false;
    }
    uint64_t v = 0;
    for (char c : s) {
      if (c < '0' || c > '9') {
        return false;
      }
      v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = v;
    return true;
  }

  static bool ParseDouble(const std::string& s, double* out) {
    if (s.empty()) {
      return false;
    }
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return false;
    }
    *out = v;
    return true;
  }

  // Number + suffix split: the suffix is the trailing run of letters.
  static bool SplitSuffix(const std::string& s, double* num, std::string* suffix) {
    size_t cut = s.size();
    while (cut > 0 && std::isalpha(static_cast<unsigned char>(s[cut - 1])) != 0) {
      --cut;
    }
    *suffix = s.substr(cut);
    return ParseDouble(s.substr(0, cut), num);
  }

  static bool ParseDuration(const std::string& s, SimTime* out) {
    double num = 0.0;
    std::string suffix;
    if (!SplitSuffix(s, &num, &suffix) || num < 0.0) {
      return false;
    }
    SimTime unit;
    if (suffix == "ps") {
      unit = kPicosecond;
    } else if (suffix == "ns") {
      unit = kNanosecond;
    } else if (suffix == "us") {
      unit = kMicrosecond;
    } else if (suffix == "ms") {
      unit = kMillisecond;
    } else if (suffix == "s") {
      unit = kSecond;
    } else {
      return false;
    }
    *out = static_cast<SimTime>(std::llround(num * static_cast<double>(unit)));
    return true;
  }

  static bool ParseFreq(const std::string& s, FreqKhz* out) {
    double num = 0.0;
    std::string suffix;
    if (!SplitSuffix(s, &num, &suffix) || num <= 0.0) {
      return false;
    }
    FreqKhz unit;
    if (suffix == "GHz" || suffix == "ghz") {
      unit = kGhz;
    } else if (suffix == "MHz" || suffix == "mhz") {
      unit = kMhz;
    } else if (suffix == "kHz" || suffix == "khz") {
      unit = kKhz;
    } else {
      return false;
    }
    *out = static_cast<FreqKhz>(std::llround(num * static_cast<double>(unit)));
    return true;
  }

  static bool ParseSize(const std::string& s, uint64_t* out) {
    double num = 0.0;
    std::string suffix;
    if (!SplitSuffix(s, &num, &suffix) || num < 0.0) {
      return false;
    }
    double unit;
    if (suffix.empty() || suffix == "B") {
      unit = 1.0;
    } else if (suffix == "KB") {
      unit = 1e3;
    } else if (suffix == "KiB") {
      unit = 1024.0;
    } else if (suffix == "MB") {
      unit = 1e6;
    } else if (suffix == "MiB") {
      unit = 1024.0 * 1024.0;
    } else if (suffix == "GB") {
      unit = 1e9;
    } else if (suffix == "GiB") {
      unit = 1024.0 * 1024.0 * 1024.0;
    } else {
      return false;
    }
    *out = static_cast<uint64_t>(std::llround(num * unit));
    return true;
  }

 private:
  const std::string& file_;
  int line_no_;
  std::vector<Token> toks_;
  size_t pos_ = 0;
  bool ok_ = true;
  ParseError* err_;
};

bool FaultClassFromName(const std::string& name, FaultClass* out) {
  for (FaultClass c : {FaultClass::kChanDrop, FaultClass::kChanDuplicate, FaultClass::kChanDelay,
                       FaultClass::kChanCorrupt, FaultClass::kWireBitFlip,
                       FaultClass::kServerCrash, FaultClass::kServerHang,
                       FaultClass::kServerLivelock}) {
    if (name == FaultClassName(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

template <size_t N>
bool InNames(const char* const (&names)[N], const std::string& name) {
  for (const char* c : names) {
    if (name == c) {
      return true;
    }
  }
  return false;
}

template <size_t N>
std::string JoinNames(const char* const (&names)[N]) {
  std::string s;
  for (const char* c : names) {
    if (!s.empty()) {
      s += ", ";
    }
    s += c;
  }
  return s;
}

constexpr const char* kInjectHint =
    "inject <chan_drop|chan_dup|chan_delay|chan_corrupt> <target> prob <p> [delay <dur>] | "
    "inject wire_flip prob <p> | at <dur> inject <crash|hang|livelock> <target> [slice <n>]";

bool ParseInject(Line& ln, Script* out, SimTime at, SimTime until) {
  std::string cls_name;
  if (!ln.Take(&cls_name, "fault class", kInjectHint)) {
    return false;
  }
  FaultSpec spec;
  if (!FaultClassFromName(cls_name, &spec.cls)) {
    return ln.FailPrev("unknown fault class '" + cls_name + "'",
                       "fault classes: chan_drop chan_dup chan_delay chan_corrupt wire_flip "
                       "crash hang livelock");
  }
  spec.delay = scenario_defaults::kChanDelay;
  spec.livelock_slice = scenario_defaults::kLivelockSlice;

  // Target: required for channel/server faults, forbidden for the wire.
  if (!IsWireFault(spec.cls)) {
    if (!ln.Take(&spec.target, "target server substring (e.g. ip, tcp, driver)", kInjectHint)) {
      return false;
    }
  }

  bool have_prob = false;
  while (!ln.AtEnd()) {
    if (ln.Accept("prob")) {
      if (!ln.TakeProb(&spec.probability, "prob", kInjectHint)) {
        return false;
      }
      have_prob = true;
    } else if (ln.Accept("delay")) {
      if (!ln.TakeDuration(&spec.delay, "delay", kInjectHint)) {
        return false;
      }
    } else if (ln.Accept("slice")) {
      uint64_t slice = 0;
      if (!ln.TakeU64(&slice, "slice", kInjectHint)) {
        return false;
      }
      spec.livelock_slice = static_cast<Cycles>(slice);
    } else {
      return ln.Fail("unknown inject option '" + ln.Peek() + "'", kInjectHint);
    }
  }

  if (IsServerFault(spec.cls)) {
    if (until != 0) {
      return ln.Fail("server faults are one-shot triggers, not windows",
                     "use `at <dur> inject " + cls_name + " <target>` without `until`");
    }
    if (at == 0) {
      return ln.Fail("server faults need a trigger time",
                     "prefix the directive: `at 90ms inject " + cls_name + " " + spec.target +
                         "`");
    }
    spec.at = at;
  } else {
    if (!have_prob) {
      return ln.Fail("channel/wire faults need a trial probability",
                     "add `prob <p>`, e.g. `inject " + cls_name +
                         (spec.target.empty() ? "" : " " + spec.target) + " prob 0.01`");
    }
    spec.from = at;
    spec.until = until;
  }
  out->injects.push_back(std::move(spec));
  return true;
}

constexpr const char* kExpectHint =
    "expect injected|detected|integrity|progress | expect recovered within <dur> | "
    "expect delivered >= <size> [by <dur>] | expect digest <hex> | "
    "expect counter <name> <==|!=|>=|<=|>|<> <n> | expect counter <name> in <lo>..<hi>";

bool ParseExpect(Line& ln, Script* out, int line_no) {
  ExpectCheck e;
  e.line = line_no;
  std::string what;
  if (!ln.Take(&what, "expectation", kExpectHint)) {
    return false;
  }
  if (what == "injected") {
    e.kind = ExpectCheck::Kind::kInjected;
  } else if (what == "detected") {
    e.kind = ExpectCheck::Kind::kDetected;
  } else if (what == "integrity") {
    e.kind = ExpectCheck::Kind::kIntegrity;
  } else if (what == "progress") {
    e.kind = ExpectCheck::Kind::kProgress;
  } else if (what == "recovered") {
    e.kind = ExpectCheck::Kind::kRecoveredWithin;
    if (!ln.Expect("within", kExpectHint) ||
        !ln.TakeDuration(&e.bound, "recovery bound", kExpectHint)) {
      return false;
    }
  } else if (what == "delivered") {
    e.kind = ExpectCheck::Kind::kDelivered;
    if (!ln.Expect(">=", kExpectHint) ||
        !ln.TakeSize(&e.value, "delivered byte floor", kExpectHint)) {
      return false;
    }
    if (ln.Accept("by")) {
      if (!ln.TakeDuration(&e.deadline, "delivery deadline", kExpectHint)) {
        return false;
      }
    }
  } else if (what == "digest") {
    e.kind = ExpectCheck::Kind::kDigest;
    if (!ln.TakeHex(&e.value, "digest", kExpectHint)) {
      return false;
    }
  } else if (what == "counter") {
    e.kind = ExpectCheck::Kind::kCounter;
    if (!ln.Take(&e.counter, "counter name", kExpectHint)) {
      return false;
    }
    e.col = ln.PrevCol();
    if (!InNames(kCounterNames, e.counter)) {
      return ln.FailPrev("unknown counter '" + e.counter + "'",
                         "counters: " + JoinNames(kCounterNames));
    }
    std::string op;
    if (!ln.Take(&op, "comparison operator", kExpectHint)) {
      return false;
    }
    if (op == "in") {
      e.op = ExpectCheck::Op::kIn;
      std::string range;
      if (!ln.Take(&range, "range", kExpectHint)) {
        return false;
      }
      const size_t dots = range.find("..");
      uint64_t lo = 0;
      uint64_t hi = 0;
      if (dots == std::string::npos || !Line::ParseU64(range.substr(0, dots), &lo) ||
          !Line::ParseU64(range.substr(dots + 2), &hi) || hi < lo) {
        return ln.FailPrev("range must be <lo>..<hi> with lo <= hi", kExpectHint);
      }
      e.value = lo;
      e.high = hi;
    } else {
      if (op == "==") {
        e.op = ExpectCheck::Op::kEq;
      } else if (op == "!=") {
        e.op = ExpectCheck::Op::kNe;
      } else if (op == ">=") {
        e.op = ExpectCheck::Op::kGe;
      } else if (op == "<=") {
        e.op = ExpectCheck::Op::kLe;
      } else if (op == ">") {
        e.op = ExpectCheck::Op::kGt;
      } else if (op == "<") {
        e.op = ExpectCheck::Op::kLt;
      } else {
        return ln.FailPrev("unknown comparison '" + op + "'", kExpectHint);
      }
      if (!ln.TakeU64(&e.value, "comparison value", kExpectHint)) {
        return false;
      }
    }
  } else {
    return ln.FailPrev("unknown expectation '" + what + "'", kExpectHint);
  }
  if (!ln.Finish(kExpectHint)) {
    return false;
  }
  out->expects.push_back(std::move(e));
  return true;
}

bool ParseLine(Line& ln, Script* out, int line_no, bool* saw_scenario) {
  std::string head;
  if (ln.AtEnd()) {
    return true;
  }
  if (!ln.Take(&head, "directive", "every line is `<directive> <args...>`")) {
    return false;
  }

  if (head == "scenario") {
    if (*saw_scenario) {
      return ln.Fail("duplicate `scenario` directive", "one scenario per .nsc file");
    }
    *saw_scenario = true;
    return ln.Take(&out->name, "scenario name", "scenario <name>") &&
           ln.Finish("scenario <name>");
  }
  if (!*saw_scenario) {
    return ln.FailPrev("the first directive must be `scenario <name>`",
                       "start the file with `scenario <name>`");
  }

  if (head == "seed") {
    return ln.TakeU64(&out->seed, "seed", "seed <n>") && ln.Finish("seed <n>");
  }
  if (head == "freq") {
    out->freqs.clear();
    FreqKhz f = 0;
    if (!ln.TakeFreq(&f, "frequency", "freq <f> [<f> ...], e.g. freq 3.6GHz 1.2GHz")) {
      return false;
    }
    out->freqs.push_back(f);
    while (!ln.AtEnd()) {
      if (!ln.TakeFreq(&f, "frequency", "freq <f> [<f> ...], e.g. freq 3.6GHz 1.2GHz")) {
        return false;
      }
      out->freqs.push_back(f);
    }
    return true;
  }
  if (head == "app_freq") {
    return ln.TakeFreq(&out->app_freq, "app frequency", "app_freq <f>") &&
           ln.Finish("app_freq <f>");
  }
  if (head == "warmup") {
    return ln.TakeDuration(&out->warmup, "warmup", "warmup <dur>") && ln.Finish("warmup <dur>");
  }
  if (head == "run_for") {
    return ln.TakeDuration(&out->run_for, "run window", "run_for <dur>") &&
           ln.Finish("run_for <dur>");
  }
  if (head == "measure_at") {
    return ln.TakeDuration(&out->measure_at, "measurement mark", "measure_at <dur>") &&
           ln.Finish("measure_at <dur>");
  }
  if (head == "recovery_bound") {
    return ln.TakeDuration(&out->recovery_bound, "recovery bound", "recovery_bound <dur>") &&
           ln.Finish("recovery_bound <dur>");
  }
  if (head == "burst") {
    return ln.TakeSize(&out->burst_bytes, "burst size", "burst <size>, e.g. burst 256KiB") &&
           ln.Finish("burst <size>");
  }
  if (head == "connections") {
    return ln.TakeInt(&out->connections, "connection count", "connections <n>") &&
           ln.Finish("connections <n>");
  }
  if (head == "topology") {
    std::string kind;
    if (!ln.Take(&kind, "topology kind", "topology p2p | topology incast clients <n> [lanes <n>]")) {
      return false;
    }
    if (kind == "p2p") {
      out->topology = Topology::kP2p;
      return ln.Finish("topology p2p");
    }
    if (kind == "incast") {
      out->topology = Topology::kIncast;
      const char* hint = "topology incast clients <n> [lanes <n>]";
      if (!ln.Expect("clients", hint) || !ln.TakeInt(&out->incast_clients, "client count", hint)) {
        return false;
      }
      if (ln.Accept("lanes")) {
        if (!ln.TakeInt(&out->lanes, "lane count", hint)) {
          return false;
        }
        const std::string why = IncastLanesError(out->incast_clients, out->lanes);
        if (!why.empty()) {
          return ln.FailPrev(why, hint);
        }
      }
      return ln.Finish(hint);
    }
    return ln.FailPrev("unknown topology '" + kind + "'",
                       "topology p2p | topology incast clients <n> [lanes <n>]");
  }
  if (head == "tcp") {
    std::string knob;
    const char* hint = "tcp sack on|off | tcp tlp on|off | tcp rto_min <dur>";
    if (!ln.Take(&knob, "tcp knob", hint)) {
      return false;
    }
    if (knob == "sack") {
      bool v = false;
      if (!ln.TakeOnOff(&v, "sack", hint)) {
        return false;
      }
      out->tcp_sack = v;
      return ln.Finish(hint);
    }
    if (knob == "tlp") {
      bool v = false;
      if (!ln.TakeOnOff(&v, "tlp", hint)) {
        return false;
      }
      out->tcp_tlp = v;
      return ln.Finish(hint);
    }
    if (knob == "rto_min") {
      SimTime v = 0;
      if (!ln.TakeDuration(&v, "rto_min", hint)) {
        return false;
      }
      out->tcp_rto_min = v;
      return ln.Finish(hint);
    }
    return ln.FailPrev("unknown tcp knob '" + knob + "'", hint);
  }
  if (head == "link") {
    std::string knob;
    const char* hint =
        "link rtt <dur> | link loss <p> [seed <n>] | link rate <r>Gbps | link queue <slots> | "
        "link reorder <p> <dur>";
    if (!ln.Take(&knob, "link knob", hint)) {
      return false;
    }
    if (knob == "rtt") {
      return ln.TakeDuration(&out->link.rtt, "rtt", hint) && ln.Finish(hint);
    }
    if (knob == "loss") {
      if (!ln.TakeProb(&out->link.loss, "loss probability", hint)) {
        return false;
      }
      if (ln.Accept("seed")) {
        if (!ln.TakeU64(&out->link.loss_seed, "loss seed", hint)) {
          return false;
        }
      }
      return ln.Finish(hint);
    }
    if (knob == "rate") {
      std::string s;
      if (!ln.Take(&s, "line rate", hint)) {
        return false;
      }
      double num = 0.0;
      std::string suffix;
      if (!Line::SplitSuffix(s, &num, &suffix) || suffix != "Gbps" || num <= 0.0) {
        return ln.FailPrev("line rate must look like 10Gbps or 0.1Gbps", hint);
      }
      out->link.rate_gbps = num;
      return ln.Finish(hint);
    }
    if (knob == "queue") {
      int slots = 0;
      if (!ln.TakeInt(&slots, "queue slots", hint)) {
        return false;
      }
      out->link.queue_slots = static_cast<uint32_t>(slots);
      return ln.Finish(hint);
    }
    if (knob == "reorder") {
      return ln.TakeProb(&out->link.reorder_prob, "reorder probability", hint) &&
             ln.TakeDuration(&out->link.reorder_delay, "reorder extra delay", hint) &&
             ln.Finish(hint);
    }
    return ln.FailPrev("unknown link knob '" + knob + "'", hint);
  }
  if (head == "watchdog") {
    const char* hint = "watchdog on|off [interval <dur>] [misses <n>]";
    if (!ln.TakeOnOff(&out->watchdog, "watchdog", hint)) {
      return false;
    }
    while (!ln.AtEnd()) {
      if (ln.Accept("interval")) {
        if (!ln.TakeDuration(&out->watchdog_params.heartbeat_interval, "interval", hint)) {
          return false;
        }
      } else if (ln.Accept("misses")) {
        if (!ln.TakeInt(&out->watchdog_params.miss_threshold, "misses", hint)) {
          return false;
        }
      } else {
        return ln.Fail("unknown watchdog option '" + ln.Peek() + "'", hint);
      }
    }
    return true;
  }
  if (head == "checkpoint") {
    return ln.TakeOnOff(&out->checkpoint, "checkpoint", "checkpoint on|off") &&
           ln.Finish("checkpoint on|off");
  }
  if (head == "trace") {
    return ln.TakeOnOff(&out->trace, "trace", "trace on|off") && ln.Finish("trace on|off");
  }
  if (head == "inject") {
    return ParseInject(ln, out, 0, 0) && ln.Finish(kInjectHint);
  }
  if (head == "at") {
    SimTime at = 0;
    const char* hint = "at <dur> [until <dur>] inject <fault> ... | at <dur> set freq <f>";
    if (!ln.TakeDuration(&at, "time", hint)) {
      return false;
    }
    if (at <= 0) {
      return ln.FailPrev("`at` time must be positive", hint);
    }
    SimTime until = 0;
    if (ln.Accept("until")) {
      if (!ln.TakeDuration(&until, "window end", hint)) {
        return false;
      }
      if (until <= at) {
        return ln.FailPrev("`until` must come after `at`", hint);
      }
    }
    if (ln.Accept("inject")) {
      return ParseInject(ln, out, at, until) && ln.Finish(kInjectHint);
    }
    if (ln.Accept("set")) {
      if (until != 0) {
        return ln.Fail("`set freq` is a point action, not a window", "at <dur> set freq <f>");
      }
      FreqStep step;
      step.at = at;
      if (!ln.Expect("freq", "at <dur> set freq <f>") ||
          !ln.TakeFreq(&step.freq, "frequency", "at <dur> set freq <f>") ||
          !ln.Finish("at <dur> set freq <f>")) {
        return false;
      }
      out->freq_steps.push_back(step);
      return true;
    }
    return ln.Fail("expected `inject` or `set` after the time", hint);
  }
  if (head == "expect") {
    return ParseExpect(ln, out, line_no);
  }
  return ln.FailPrev("unknown directive '" + head + "'",
                     "directives: scenario seed freq app_freq warmup run_for measure_at "
                     "recovery_bound burst connections topology tcp link watchdog checkpoint "
                     "trace inject at expect");
}

// Cross-directive validation after the whole file parsed.
bool Validate(const Script& s, const std::string& file, ParseError* err) {
  // Whole-script errors have no position (line 0); one tied to a directive
  // passes where it was.
  auto fail = [&](const std::string& message, const std::string& hint, int line = 0,
                  int col = 0, const std::string& token = "") {
    err->file = file;
    err->line = line;
    err->col = col;
    err->token = token;
    err->message = message;
    err->hint = hint;
    return false;
  };
  if (s.topology == Topology::kIncast) {
    if (!s.injects.empty() || s.watchdog || !s.freq_steps.empty()) {
      return fail("fault injection, watchdog and DVFS steps are p2p-only for now",
                  "drop `topology incast` or remove the inject/watchdog/at directives");
    }
    if (s.trace) {
      return fail("tracing is p2p-only for now", "remove `trace on` or use `topology p2p`");
    }
    if (s.incast_clients < 1 || s.lanes < 1) {
      return fail("incast needs at least one client and one lane",
                  "topology incast clients <n> [lanes <n>]");
    }
  }
  for (const ExpectCheck& e : s.expects) {
    if ((e.kind == ExpectCheck::Kind::kDetected ||
         e.kind == ExpectCheck::Kind::kRecoveredWithin) &&
        !s.watchdog) {
      return fail("`expect detected`/`expect recovered` need `watchdog on`",
                  "add `watchdog on` so there is a detector to expect things from");
    }
    if (e.kind == ExpectCheck::Kind::kInjected && s.injects.empty()) {
      return fail("`expect injected` without any `inject` directive",
                  "add an inject directive or drop the expectation");
    }
    if (e.kind == ExpectCheck::Kind::kDelivered && e.deadline != 0 &&
        s.topology == Topology::kIncast) {
      // Checked here, not in ParseExpect: `topology` may follow the expect.
      return fail("`expect delivered ... by <dur>` is p2p-only: the incast rig samples "
                  "delivery only at the end of the run",
                  "drop `by <dur>` to expect the floor at the end of the run", e.line);
    }
    if (e.kind == ExpectCheck::Kind::kDelivered && e.deadline != 0 &&
        e.deadline > s.warmup + s.run_for) {
      return fail("delivery deadline is past the end of the run",
                  "`by <dur>` must be <= warmup + run_for");
    }
    if (e.kind == ExpectCheck::Kind::kCounter && s.topology == Topology::kIncast &&
        !InNames(kIncastCounterNames, e.counter)) {
      // Checked here, not in ParseExpect: `topology` may follow the expect.
      return fail("counter '" + e.counter + "' is not measured by `topology incast`",
                  "incast counters: " + JoinNames(kIncastCounterNames), e.line, e.col,
                  e.counter);
    }
  }
  for (const FaultSpec& f : s.injects) {
    const SimTime end = s.warmup + s.run_for;
    if (f.at > end || f.from > end) {
      return fail("a fault is scheduled past the end of the run",
                  "`at <dur>` must be <= warmup + run_for");
    }
  }
  return true;
}

}  // namespace

std::string ParseError::Format() const {
  std::ostringstream oss;
  oss << (file.empty() ? "<memory>" : file) << ":" << line << ":" << col << ": error: "
      << message;
  if (!token.empty()) {
    oss << " near '" << token << "'";
  }
  if (!hint.empty()) {
    oss << "\n  hint: " << hint;
  }
  return oss.str();
}

bool ParseScript(const std::string& text, const std::string& file, Script* out,
                 ParseError* err) {
  *out = Script{};
  out->path = file;
  bool saw_scenario = false;
  int line_no = 0;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t nl = text.find('\n', begin);
    const std::string line =
        text.substr(begin, nl == std::string::npos ? std::string::npos : nl - begin);
    ++line_no;
    Line ln(file, line_no, Tokenize(line), err);
    if (!ParseLine(ln, out, line_no, &saw_scenario)) {
      return false;
    }
    if (nl == std::string::npos) {
      break;
    }
    begin = nl + 1;
  }
  if (!saw_scenario) {
    err->file = file;
    err->line = line_no;
    err->col = 1;
    err->token = "";
    err->message = "empty script: no `scenario` directive";
    err->hint = "start the file with `scenario <name>`";
    return false;
  }
  if (out->freqs.empty()) {
    out->freqs.push_back(scenario_defaults::kStackFreq);
  }
  return Validate(*out, file, err);
}

bool LoadScript(const std::string& path, Script* out, ParseError* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err->file = path;
    err->line = 0;
    err->col = 0;
    err->message = "cannot open script file";
    err->hint = "check the path; scripts live under scenarios/";
    return false;
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  return ParseScript(oss.str(), path, out, err);
}

bool LoadScriptDir(const std::string& dir, std::vector<Script>* out, ParseError* err) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".nsc") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    err->file = dir;
    err->line = 0;
    err->col = 0;
    err->message = "cannot list scenario directory: " + ec.message();
    err->hint = "check the path; scripts live under scenarios/";
    return false;
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& p : paths) {
    Script s;
    if (!LoadScript(p, &s, err)) {
      return false;
    }
    out->push_back(std::move(s));
  }
  return true;
}

}  // namespace newtos::scenario

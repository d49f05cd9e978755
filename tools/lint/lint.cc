// Token-level rule engine for newtos_lint. See lint.h for the catalogue.
//
// The scanner never builds an AST: each file is split into lines with
// comments and string/char literals blanked out (so a banned identifier in a
// comment never fires), then rules pattern-match identifiers with word
// boundaries. Two rules look slightly further: map-iteration correlates
// container *declarations* (in the file and its sibling header) with
// iteration sites, and server-handle correlates a `: public Server` class
// head with the presence of a Handle() override in the same file. That is as
// much structure as the invariants need, and it keeps the tool dependency-free.

#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace newtos::lint {

namespace {

namespace fs = std::filesystem;

bool IsIdent(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Blanks comments and string/char literals, preserving line structure and
// column positions (every blanked byte becomes a space).
std::vector<std::string> StripToCode(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar };
  St st = St::kCode;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (st == St::kLineComment) {
        st = St::kCode;
      }
      lines.push_back(cur);
      cur.clear();
      continue;
    }
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          cur += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          cur += "  ";
          ++i;
        } else if (c == '"') {
          st = St::kString;
          cur += ' ';
        } else if (c == '\'') {
          st = St::kChar;
          cur += ' ';
        } else {
          cur += c;
        }
        break;
      case St::kLineComment:
        cur += ' ';
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          st = St::kCode;
          cur += "  ";
          ++i;
        } else {
          cur += ' ';
        }
        break;
      case St::kString:
        if (c == '\\') {
          cur += "  ";
          ++i;
        } else if (c == '"') {
          st = St::kCode;
          cur += ' ';
        } else {
          cur += ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          cur += "  ";
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          cur += ' ';
        } else {
          cur += ' ';
        }
        break;
    }
  }
  lines.push_back(cur);
  return lines;
}

std::vector<std::string> SplitRaw(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

// Finds `word` as a whole identifier in `line`, starting at `from`.
// Returns npos if absent.
size_t FindWord(const std::string& line, const std::string& word, size_t from = 0) {
  size_t pos = from;
  while ((pos = line.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdent(line[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !IsIdent(line[end]);
    if (left_ok && right_ok) {
      return pos;
    }
    pos = end;
  }
  return std::string::npos;
}

size_t SkipSpaces(const std::string& s, size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
    ++i;
  }
  return i;
}

// From an opening '<' at `i`, returns the index one past the matching '>'
// (same line only), or npos.
size_t SkipTemplateArgs(const std::string& s, size_t i) {
  if (i >= s.size() || s[i] != '<') {
    return std::string::npos;
  }
  int depth = 0;
  for (; i < s.size(); ++i) {
    if (s[i] == '<') {
      ++depth;
    } else if (s[i] == '>') {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return std::string::npos;
}

std::string ReadIdent(const std::string& s, size_t* i) {
  const size_t b = *i;
  while (*i < s.size() && IsIdent(s[*i])) {
    ++(*i);
  }
  return s.substr(b, *i - b);
}

// Parses a pure integer literal (decimal or 0x hex, ' separators allowed).
// Returns true and the value when `s` is nothing but the literal.
bool ParseIntLiteral(std::string s, uint64_t* value) {
  s.erase(std::remove(s.begin(), s.end(), '\''), s.end());
  s = [&] {
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
  }();
  if (s.empty()) {
    return false;
  }
  // Trailing integer suffixes (u, l, ull, ...) are part of a literal.
  while (!s.empty() && (std::tolower(static_cast<unsigned char>(s.back())) == 'u' ||
                        std::tolower(static_cast<unsigned char>(s.back())) == 'l')) {
    s.pop_back();
  }
  if (s.empty()) {
    return false;
  }
  int base = 10;
  size_t i = 0;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    i = 2;
  }
  uint64_t v = 0;
  for (; i < s.size(); ++i) {
    const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(s[i])));
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = v * static_cast<uint64_t>(base) + static_cast<uint64_t>(digit);
  }
  *value = v;
  return true;
}

bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

struct FileText {
  std::vector<std::string> code;  // comments/strings blanked
  std::vector<std::string> raw;   // original, for inline waivers
};

// An inline waiver covers diagnostics on its own line or the line below:
//   foo();  // lint:allow(rule-id): reason
//   // lint:allow(rule-id): reason
//   foo();
bool InlineWaived(const FileText& f, int line1, const std::string& rule, std::string* reason) {
  const std::string needle = "lint:allow(" + rule + ")";
  for (int l = line1; l >= line1 - 1 && l >= 1; --l) {
    const std::string& raw = f.raw[static_cast<size_t>(l - 1)];
    const size_t pos = raw.find(needle);
    if (pos == std::string::npos) {
      continue;
    }
    size_t r = pos + needle.size();
    if (r < raw.size() && raw[r] == ':') {
      ++r;
    }
    while (r < raw.size() && raw[r] == ' ') {
      ++r;
    }
    *reason = raw.substr(r);
    return true;
  }
  return false;
}

class Linter {
 public:
  Linter(std::string rel_path, const FileText& file, const FileText& sibling,
         const Config& config, std::vector<Diagnostic>* out)
      : rel_path_(std::move(rel_path)),
        file_(file),
        sibling_(sibling),
        config_(config),
        out_(out) {}

  void Run() {
    if (On("heap-new")) CheckHeapNew();
    if (On("heap-make")) CheckCall("heap-make", "std::make_unique",
                                   "std::make_unique allocates; pool or waive with a reason");
    if (On("heap-make")) CheckCall("heap-make", "std::make_shared",
                                   "std::make_shared allocates; use PacketPool / MakePacket or waive");
    if (On("std-function")) CheckCall("std-function", "std::function",
                                      "std::function heap-allocates big captures; use InlineCallback");
    if (On("banned-deque")) CheckCall("banned-deque", "std::deque",
                                      "std::deque churns chunk allocations; use RingDeque");
    if (On("map-iteration")) CheckMapIteration();
    if (On("wall-clock")) CheckWallClock();
    if (On("runtime-clock")) CheckRuntimeClock();
    if (On("nondet-source")) CheckNondetSource();
    if (On("ptr-key-order")) CheckPtrKeyOrder();
    if (On("server-handle")) CheckServerHandle();
    if (On("ring-pow2")) CheckRingPow2();
    if (On("fabric-shared-state")) CheckFabricSharedState();
    if (On("flow-timer")) CheckFlowTimer();
    if (On("scenario-literals")) CheckScenarioLiterals();
    if (On("blocking-push")) CheckBlockingPush();
  }

 private:
  bool On(const char* rule) const { return config_.RuleAppliesTo(rule, rel_path_); }

  void Report(const std::string& rule, int line1, const std::string& message) {
    Diagnostic d;
    d.file = rel_path_;
    d.line = line1;
    d.rule = rule;
    d.message = message;
    std::string reason;
    if (InlineWaived(file_, line1, rule, &reason)) {
      d.waived = true;
      d.waive_reason = reason;
    } else if (const AllowEntry* a = config_.FindAllow(rule, rel_path_)) {
      d.waived = true;
      d.waive_reason = a->reason;
    }
    out_->push_back(std::move(d));
  }

  // --- heap-new: a `new` expression that is not placement new and not an
  // `operator new` declaration/call.
  void CheckHeapNew() {
    for (size_t l = 0; l < file_.code.size(); ++l) {
      const std::string& line = file_.code[l];
      // Preprocessor lines are not expressions (`#include <new>`).
      const size_t first = SkipSpaces(line, 0);
      if (first < line.size() && line[first] == '#') {
        continue;
      }
      size_t pos = 0;
      while ((pos = FindWord(line, "new", pos)) != std::string::npos) {
        const size_t after = SkipSpaces(line, pos + 3);
        // Placement new: `new (addr) T`. Operator forms: `operator new`,
        // `::operator new(...)` — the word before is `operator`.
        bool is_operator = false;
        if (pos >= 1) {
          size_t b = pos;
          while (b > 0 && std::isspace(static_cast<unsigned char>(line[b - 1]))) {
            --b;
          }
          if (b >= 8 && line.compare(b - 8, 8, "operator") == 0) {
            is_operator = true;
          }
        }
        const bool is_placement = after < line.size() && line[after] == '(';
        if (!is_operator && !is_placement) {
          Report("heap-new", static_cast<int>(l + 1),
                 "`new` expression on a project path; slab/pool allocation only");
        }
        pos += 3;
      }
    }
  }

  // Generic "this qualified name must not appear" rule. `name` is matched
  // with an identifier boundary on its last component.
  void CheckCall(const std::string& rule, const std::string& name, const std::string& msg) {
    for (size_t l = 0; l < file_.code.size(); ++l) {
      size_t pos = 0;
      const std::string& line = file_.code[l];
      while ((pos = line.find(name, pos)) != std::string::npos) {
        const size_t end = pos + name.size();
        const bool right_ok = end >= line.size() || !IsIdent(line[end]);
        const bool left_ok = pos == 0 || (!IsIdent(line[pos - 1]) && line[pos - 1] != ':');
        if (left_ok && right_ok) {
          Report(rule, static_cast<int>(l + 1), msg);
        }
        pos = end;
      }
    }
  }

  // Collects names of variables/members declared as std::map/std::unordered_map
  // in `f` (single-line declarations; matches the house style).
  static std::vector<std::string> MapVarNames(const FileText& f) {
    std::vector<std::string> names;
    for (const std::string& line : f.code) {
      for (const char* type : {"std::unordered_map", "std::map"}) {
        size_t pos = 0;
        while ((pos = line.find(type, pos)) != std::string::npos) {
          size_t i = pos + std::string(type).size();
          if (i >= line.size() || line[i] != '<') {
            ++pos;
            continue;
          }
          i = SkipTemplateArgs(line, i);
          if (i == std::string::npos) {
            break;
          }
          i = SkipSpaces(line, i);
          // Pointers/references to maps count too: `std::map<...>* m`.
          while (i < line.size() && (line[i] == '*' || line[i] == '&')) {
            i = SkipSpaces(line, i + 1);
          }
          const std::string name = ReadIdent(line, &i);
          if (!name.empty()) {
            names.push_back(name);
          }
          pos = i;
        }
      }
    }
    return names;
  }

  void CheckMapIteration() {
    std::vector<std::string> names = MapVarNames(file_);
    const std::vector<std::string> sib = MapVarNames(sibling_);
    names.insert(names.end(), sib.begin(), sib.end());
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    if (names.empty()) {
      return;
    }
    for (size_t l = 0; l < file_.code.size(); ++l) {
      const std::string& line = file_.code[l];
      for (const std::string& name : names) {
        // Range-for:  for (... : name)   (allowing *name, this->name)
        const size_t fpos = FindWord(line, "for");
        if (fpos != std::string::npos) {
          const size_t colon = line.find(':', fpos);
          if (colon != std::string::npos) {
            size_t i = SkipSpaces(line, colon + 1);
            while (i < line.size() && (line[i] == '*' || line[i] == '&')) {
              i = SkipSpaces(line, i + 1);
            }
            if (line.compare(i, 6, "this->") == 0) {
              i += 6;
            }
            size_t j = i;
            const std::string ident = ReadIdent(line, &j);
            const size_t after = SkipSpaces(line, j);
            if (ident == name && after < line.size() && line[after] == ')') {
              Report("map-iteration", static_cast<int>(l + 1),
                     "iterating map '" + name + "' in event-ordering code; " +
                         "iteration order is not a replayable quantity");
              continue;
            }
          }
        }
        // Iterator loops: name.begin() / name->begin().
        for (const std::string& probe : {name + ".begin()", name + "->begin()"}) {
          const size_t p = line.find(probe);
          if (p != std::string::npos && (p == 0 || !IsIdent(line[p - 1]))) {
            Report("map-iteration", static_cast<int>(l + 1),
                   "iterating map '" + name + "' in event-ordering code; " +
                       "iteration order is not a replayable quantity");
          }
        }
      }
    }
  }

  void CheckWallClock() {
    for (const char* banned : {"steady_clock", "high_resolution_clock", "gettimeofday",
                               "clock_gettime"}) {
      for (size_t l = 0; l < file_.code.size(); ++l) {
        if (FindWord(file_.code[l], banned) != std::string::npos) {
          Report("wall-clock", static_cast<int>(l + 1),
                 std::string(banned) + " reads the host clock; model code uses SimTime only");
        }
      }
    }
  }

  // runtime-clock: host-time primitives are the runtime backend's monopoly.
  // wall-clock already bans the raw clock reads in model code; this rule adds
  // the std::chrono surface and the sleep/timespec plumbing, so the sim's
  // wall-clock ban survives the live backend's existence — new code either
  // takes SimTime or goes through RuntimeClock (src/runtime/clock.h).
  void CheckRuntimeClock() {
    for (const char* banned : {"chrono", "clock_gettime", "CLOCK_MONOTONIC",
                               "CLOCK_REALTIME", "timespec_get", "nanosleep"}) {
      for (size_t l = 0; l < file_.code.size(); ++l) {
        if (FindWord(file_.code[l], banned) != std::string::npos) {
          Report("runtime-clock", static_cast<int>(l + 1),
                 std::string(banned) +
                     " is a host-time primitive; outside src/runtime use SimTime or go "
                     "through RuntimeClock (src/runtime/clock.h)");
        }
      }
    }
  }

  void CheckNondetSource() {
    for (const char* banned : {"system_clock", "localtime", "gmtime", "random_device",
                               "drand48", "srand"}) {
      for (size_t l = 0; l < file_.code.size(); ++l) {
        if (FindWord(file_.code[l], banned) != std::string::npos) {
          Report("nondet-source", static_cast<int>(l + 1),
                 std::string(banned) + " is a nondeterminism source; seed an Rng instead");
        }
      }
    }
    // `rand(` and `time(` need the call parenthesis to avoid identifier
    // collisions (SimTime, rand_state_, ...).
    for (const char* fn : {"rand", "time"}) {
      for (size_t l = 0; l < file_.code.size(); ++l) {
        const std::string& line = file_.code[l];
        size_t pos = 0;
        while ((pos = FindWord(line, fn, pos)) != std::string::npos) {
          const size_t after = SkipSpaces(line, pos + std::string(fn).size());
          const bool member = pos >= 1 && (line[pos - 1] == '.' ||
                                           (pos >= 2 && line.compare(pos - 2, 2, "->") == 0));
          if (!member && after < line.size() && line[after] == '(') {
            Report("nondet-source", static_cast<int>(l + 1),
                   std::string(fn) + "() is a libc nondeterminism source; seed an Rng instead");
          }
          pos += std::string(fn).size();
        }
      }
    }
  }

  void CheckPtrKeyOrder() {
    for (const char* type : {"std::map", "std::set"}) {
      for (size_t l = 0; l < file_.code.size(); ++l) {
        const std::string& line = file_.code[l];
        size_t pos = 0;
        while ((pos = line.find(type, pos)) != std::string::npos) {
          size_t i = pos + std::string(type).size();
          if (i >= line.size() || line[i] != '<') {
            ++pos;
            continue;
          }
          // First template argument: up to a depth-0 comma or the closing '>'.
          int depth = 0;
          std::string first;
          for (size_t j = i; j < line.size(); ++j) {
            if (line[j] == '<') {
              ++depth;
            } else if (line[j] == '>') {
              if (--depth == 0) {
                break;
              }
            } else if (line[j] == ',' && depth == 1) {
              break;
            }
            if (j > i) {
              first += line[j];
            }
          }
          if (first.find('*') != std::string::npos) {
            Report("ptr-key-order", static_cast<int>(l + 1),
                   std::string(type) + " keyed by a pointer orders by address — different "
                   "every run; key by a stable id");
          }
          pos = i;
        }
      }
    }
  }

  void CheckServerHandle() {
    bool file_has_handle = false;
    for (const std::string& line : file_.code) {
      const size_t pos = FindWord(line, "Handle");
      if (pos != std::string::npos) {
        const size_t after = SkipSpaces(line, pos + 6);
        if (after < line.size() && line[after] == '(') {
          file_has_handle = true;
          break;
        }
      }
    }
    for (size_t l = 0; l < file_.code.size(); ++l) {
      const std::string& line = file_.code[l];
      const size_t cls = FindWord(line, "class");
      if (cls == std::string::npos) {
        continue;
      }
      const size_t colon = line.find(':', cls);
      if (colon == std::string::npos) {
        continue;
      }
      const size_t base = FindWord(line, "Server", colon);
      if (base == std::string::npos) {
        continue;
      }
      // Qualified bases (SomeServerImpl) are excluded by FindWord; exclude
      // derived-from-subclass names like `: public TcpServer` via the
      // preceding character (must not be part of an identifier).
      if (!file_has_handle) {
        size_t i = cls + 6;
        i = SkipSpaces(line, i);
        const std::string name = ReadIdent(line, &i);
        Report("server-handle", static_cast<int>(l + 1),
               "Server subclass '" + name + "' never overrides Handle(); every server " +
                   "must implement its message semantics");
      }
    }
  }

  void CheckRingPow2() {
    for (size_t l = 0; l < file_.code.size(); ++l) {
      const std::string& line = file_.code[l];
      size_t pos = 0;
      while ((pos = line.find("SpscRing", pos)) != std::string::npos) {
        if (pos > 0 && IsIdent(line[pos - 1])) {
          pos += 8;
          continue;
        }
        size_t i = pos + 8;
        if (i >= line.size() || line[i] != '<') {
          ++pos;
          continue;
        }
        i = SkipTemplateArgs(line, i);
        if (i == std::string::npos) {
          break;
        }
        // Declaration (`SpscRing<T> name(cap)`) or direct construction
        // (`SpscRing<T>(cap)`, `make_unique<SpscRing<T>>(cap)`).
        i = SkipSpaces(line, i);
        while (i < line.size() && line[i] == '>') {
          i = SkipSpaces(line, i + 1);
        }
        ReadIdent(line, &i);
        i = SkipSpaces(line, i);
        if (i < line.size() && (line[i] == '(' || line[i] == '{')) {
          const char close = line[i] == '(' ? ')' : '}';
          const size_t end = line.find(close, i + 1);
          if (end != std::string::npos) {
            uint64_t cap = 0;
            if (ParseIntLiteral(line.substr(i + 1, end - i - 1), &cap) && !IsPow2(cap)) {
              std::ostringstream oss;
              oss << "ring capacity " << cap << " is not a power of two; the ring rounds "
                  << "up silently — say what you mean";
              Report("ring-pow2", static_cast<int>(l + 1), oss.str());
            }
          }
        }
        pos = i;
      }
    }
  }

  // --- fabric-shared-state: mutable `static` or `thread_local` data in the
  // fabric layer. Lanes run concurrently between barriers, and the lane-count
  // invariance argument (DESIGN.md §8) requires every piece of mutable state
  // to be owned by exactly one lane or touched only flush-side (Switch
  // members, single-threaded at barriers). A mutable static is shared across
  // lanes with no guard; thread_local silently varies with the partition.
  void CheckFabricSharedState() {
    for (size_t l = 0; l < file_.code.size(); ++l) {
      const std::string& line = file_.code[l];
      if (FindWord(line, "thread_local") != std::string::npos) {
        Report("fabric-shared-state", static_cast<int>(l + 1),
               "thread_local in fabric code varies with the lane partition; bind "
               "per-lane state through Lane / PacketPool::ScopedUse instead");
      }
      size_t pos = 0;
      while ((pos = FindWord(line, "static", pos)) != std::string::npos) {
        size_t i = SkipSpaces(line, pos + 6);
        size_t j = i;
        std::string tok = ReadIdent(line, &j);
        while (tok == "inline") {
          i = SkipSpaces(line, j);
          j = i;
          tok = ReadIdent(line, &j);
        }
        if (tok != "const" && tok != "constexpr") {
          // Variable vs function: the first structural character after the
          // declarator decides — an initializer or terminator means data.
          const size_t stop = line.find_first_of("(;={", i);
          if (stop == std::string::npos || line[stop] != '(') {
            Report("fabric-shared-state", static_cast<int>(l + 1),
                   "mutable static is cross-lane shared state with no guard; own it "
                   "in a Lane or keep it flush-side in the Switch");
          }
        }
        pos = j > pos + 6 ? j : pos + 6;
      }
    }
  }

  // --- flow-timer: a Schedule/ScheduleAt call in the TCP/OS layers. Per-flow
  // timers as event-queue entries are exactly what the TimerWheel replaced
  // (O(log n) heap sifts, one queue slot per pending timer); arming the queue
  // directly from protocol or server code reintroduces them. Whole-word match
  // with a call parenthesis, so MaybeSchedule()/Reschedule() members and
  // declarations of other names never fire.
  void CheckFlowTimer() {
    for (const char* fn : {"Schedule", "ScheduleAt"}) {
      for (size_t l = 0; l < file_.code.size(); ++l) {
        const std::string& line = file_.code[l];
        size_t pos = 0;
        while ((pos = FindWord(line, fn, pos)) != std::string::npos) {
          const size_t after = SkipSpaces(line, pos + std::string(fn).size());
          if (after < line.size() && line[after] == '(') {
            Report("flow-timer", static_cast<int>(l + 1),
                   std::string(fn) + "() arms the event queue directly; flow and "
                   "housekeeping timers go on the owning host's TimerWheel");
          }
          pos += std::string(fn).size();
        }
      }
    }
  }

  // --- scenario-literals: a numeric literal multiplied onto a time-unit
  // constant in scenario-lowering code. The .nsc compiler turns script text
  // into engine plans, and every magic duration it bakes in (`30 *
  // kMillisecond`) is a number an auditor cannot trace back to a script
  // knob or a named default. Scenario code names its constants in
  // src/scenario/defaults.h; arithmetic *on* units (division to format, a
  // variable scaled by a unit) stays legal.
  void CheckScenarioLiterals() {
    for (const char* unit :
         {"kPicosecond", "kNanosecond", "kMicrosecond", "kMillisecond", "kSecond"}) {
      const size_t ulen = std::string(unit).size();
      for (size_t l = 0; l < file_.code.size(); ++l) {
        const std::string& line = file_.code[l];
        size_t pos = 0;
        while ((pos = FindWord(line, unit, pos)) != std::string::npos) {
          bool literal = false;
          // `<literal> * kUnit`: walk left over spaces to a '*', then across
          // the token before it; a token starting with a digit is a literal
          // (covers 100, 0x40, 2'000, 0.5, 30ULL — identifiers can't start
          // with a digit).
          size_t b = pos;
          while (b > 0 && std::isspace(static_cast<unsigned char>(line[b - 1]))) --b;
          if (b > 0 && line[b - 1] == '*') {
            --b;
            while (b > 0 && std::isspace(static_cast<unsigned char>(line[b - 1]))) --b;
            const size_t tok_end = b;
            while (b > 0 && (std::isalnum(static_cast<unsigned char>(line[b - 1])) ||
                             line[b - 1] == '\'' || line[b - 1] == '.')) {
              --b;
            }
            literal =
                tok_end > b && std::isdigit(static_cast<unsigned char>(line[b])) != 0;
          }
          // `kUnit * <literal>`: same pattern, commuted.
          if (!literal) {
            size_t a = SkipSpaces(line, pos + ulen);
            if (a < line.size() && line[a] == '*') {
              a = SkipSpaces(line, a + 1);
              literal =
                  a < line.size() && std::isdigit(static_cast<unsigned char>(line[a])) != 0;
            }
          }
          if (literal) {
            Report("scenario-literals", static_cast<int>(l + 1),
                   std::string("magic duration `N * ") + unit +
                       "` in scenario-lowering code; name the constant in "
                       "src/scenario/defaults.h so scripts and defaults stay auditable");
          }
          pos += ulen;
        }
      }
    }
  }

  // --- blocking-push: a producer busy-waiting on a ring push,
  // `while (!ring.Push(x))` / `->TryPush` / `.TryEmplace`. Backpressure must
  // park or drop, never spin: a spinning producer plus a blocked consumer is
  // the deadlock shape the static wait-graph check proves absent, and every
  // sanctioned spin must be visible to it via analyze.toml.
  void CheckBlockingPush() {
    for (size_t l = 0; l < file_.code.size(); ++l) {
      const std::string& line = file_.code[l];
      const size_t w = FindWord(line, "while", 0);
      if (w == std::string::npos) {
        continue;
      }
      const size_t open = SkipSpaces(line, w + 5);
      if (open >= line.size() || line[open] != '(') {
        continue;
      }
      const std::string cond = line.substr(open);
      if (cond.find('!') == std::string::npos) {
        continue;
      }
      for (const char* call : {"Push(", "TryPush(", "TryEmplace("}) {
        const size_t c = cond.find(call);
        const bool member_call =
            c != std::string::npos &&
            ((c >= 1 && cond[c - 1] == '.') ||
             (c >= 2 && cond.compare(c - 2, 2, "->") == 0));
        if (member_call) {
          Report("blocking-push", static_cast<int>(l + 1),
                 "busy-wait on a ring push; park or shed instead — sanctioned "
                 "spin sites need an inline waiver and a matching [[blocking]] "
                 "entry in tools/analyze/analyze.toml");
          break;
        }
      }
    }
  }

  const std::string rel_path_;
  const FileText& file_;
  const FileText& sibling_;
  const Config& config_;
  std::vector<Diagnostic>* out_;
};

bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  *out = oss.str();
  return true;
}

}  // namespace

void LintFileText(const std::string& rel_path, const std::string& text,
                  const std::string& sibling_header, const Config& config,
                  std::vector<Diagnostic>* out) {
  FileText file{StripToCode(text), SplitRaw(text)};
  FileText sibling{StripToCode(sibling_header), SplitRaw(sibling_header)};
  Linter(rel_path, file, sibling, config, out).Run();
}

bool LintTree(const std::string& root, const Config& config, std::vector<Diagnostic>* out,
              std::string* error) {
  const fs::path rootp(root);
  std::vector<fs::path> files;
  for (const char* dir : {"src", "bench", "examples", "tools"}) {
    const fs::path d = rootp / dir;
    if (!fs::exists(d)) {
      continue;
    }
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(d, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) {
        *error = "walk failed under " + d.string() + ": " + ec.message();
        return false;
      }
      if (!it->is_regular_file()) {
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());

  for (const fs::path& p : files) {
    std::string text;
    if (!ReadFile(p, &text)) {
      *error = "cannot read " + p.string();
      return false;
    }
    std::string sibling;
    if (p.extension() != ".h") {
      fs::path h = p;
      h.replace_extension(".h");
      if (fs::exists(h)) {
        ReadFile(h, &sibling);  // best effort
      }
    }
    std::string rel = fs::relative(p, rootp).generic_string();
    LintFileText(rel, text, sibling, config, out);
  }
  return true;
}

}  // namespace newtos::lint

// newtos_lint: project-invariant linter for the newtos tree.
//
// The repo's load-bearing claims — zero allocations per event on the fast
// path, single-producer/single-consumer channel discipline, bit-for-bit
// deterministic replay — are runtime-checked by the allocation gates, the
// ChannelChecker and the determinism goldens, but nothing stops a PR from
// quietly *reintroducing* the idioms those gates exist to catch. This linter
// closes that hole statically: a token-level (AST-lite, no libclang) scanner
// that walks src/, bench/, examples/, tools/ and tests/ and flags, in the
// paths each rule's lint.toml entry names, the idioms the project has
// banned, with every exception recorded in a checked-in allowlist
// (tools/lint/lint.toml) or an inline `lint:allow(rule)` comment so waivers
// are explicit and reviewed.
//
// Rule catalogue (ids are stable; DESIGN.md §6 documents the rationale):
//   heap-new         non-placement `new` expression (slab pools only)
//   heap-make        std::make_unique / std::make_shared (PacketPool / init
//                    paths need a waiver with a reason)
//   std-function     std::function in engine/channel code (InlineCallback
//                    exists precisely so the event loop never touches it)
//   banned-deque     std::deque (RingDeque is the allocation-free analogue)
//   map-iteration    iterating a std::map / std::unordered_map in
//                    event-ordering code (unordered iteration order is not a
//                    replayable quantity; ordered maps need a reason)
//   wall-clock       steady_clock / high_resolution_clock / gettimeofday /
//                    clock_gettime in model code (simulated time only)
//   runtime-clock    std::chrono / clock_gettime / CLOCK_* / timespec_get /
//                    nanosleep outside src/runtime — the live backend owns
//                    host time behind RuntimeClock (src/runtime/clock.h);
//                    everything else takes SimTime or a RuntimeClock
//   nondet-source    system_clock, time(), localtime, rand(), srand(),
//                    std::random_device — nondeterminism sources anywhere
//   ptr-key-order    std::map / std::set keyed by a pointer (address-order
//                    is different every run)
//   server-handle    a Server subclass that never overrides Handle()
//   ring-pow2        a ring constructed with a non-power-of-two literal
//                    capacity (the ring rounds up silently; say what you mean)
//   fabric-shared-state  mutable `static` / `thread_local` data in fabric
//                    code (lanes run concurrently between barriers; shared
//                    mutable state must be lane-owned or flush-side)
//   flow-timer       direct event-queue arming (Schedule / ScheduleAt) in
//                    the TCP/OS layers — flow and housekeeping timers must
//                    live on the owning host's TimerWheel, which keeps one
//                    pending event per wheel instead of one per flow
//   scenario-literals  a numeric literal multiplied onto a time-unit
//                    constant (`30 * kMillisecond`) in scenario-lowering
//                    code — every duration the .nsc compiler bakes in must
//                    be a named constant in src/scenario/defaults.h, so the
//                    script surface and its defaults stay auditable
//   blocking-push    a busy-wait loop on a ring push (`while (!q.Push(x))`
//                    and the TryPush/TryEmplace variants) — a producer that
//                    spins until its consumer drains turns backpressure into
//                    a potential deadlock; it keeps the message where it
//                    lies (or in a one-slot pending buffer) and retries on
//                    its next pass instead. No spin site is sanctioned

#ifndef TOOLS_LINT_LINT_H_
#define TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

namespace newtos::lint {

struct Diagnostic {
  std::string file;  // repo-relative path, forward slashes
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
  bool waived = false;        // matched an allowlist entry or inline waiver
  std::string waive_reason;   // why, when waived
};

// One allowlist entry from lint.toml. `path` is a repo-relative prefix; an
// empty `rule` matches every rule (discouraged; reserved for vendored code).
struct AllowEntry {
  std::string rule;
  std::string path;
  std::string reason;
  mutable bool used = false;  // set during a run; unused entries are reported
};

// Per-rule scoping: the rule fires only in files under one of these
// repo-relative prefixes. A rule absent from the config is disabled.
struct RuleScope {
  std::string rule;
  std::vector<std::string> paths;
};

struct Config {
  std::vector<RuleScope> scopes;
  std::vector<AllowEntry> allows;

  bool RuleAppliesTo(const std::string& rule, const std::string& rel_path) const;
  // Returns the matching allow entry, or nullptr.
  const AllowEntry* FindAllow(const std::string& rule, const std::string& rel_path) const;
};

// Parses the lint.toml subset: `[rule.<id>]` tables with a `paths` array,
// and `[[allow]]` entries with `rule`, `path`, `reason` strings. Returns
// false (with `error` set) on malformed input or an allow entry without a
// reason — an unexplained waiver is itself a lint failure.
bool ParseConfig(const std::string& text, Config* config, std::string* error);
bool LoadConfig(const std::string& path, Config* config, std::string* error);

// Lints one file (already loaded). `rel_path` is the repo-relative path used
// for scoping and reporting. `sibling_header` may carry the text of the
// matching .h for member-declaration lookups (map-iteration); pass "" if
// there is none. Appends to `out`, including waived diagnostics (callers
// filter on `waived`).
void LintFileText(const std::string& rel_path, const std::string& text,
                  const std::string& sibling_header, const Config& config,
                  std::vector<Diagnostic>* out);

// Walks `root`'s src/, bench/, examples/, tools/ and tests/ trees (extensions
// .h, .cc, .cpp) and lints every file under the rules whose paths cover it.
// Returns false if the walk itself failed.
bool LintTree(const std::string& root, const Config& config, std::vector<Diagnostic>* out,
              std::string* error);

}  // namespace newtos::lint

#endif  // TOOLS_LINT_LINT_H_

// LiveStack: the multiserver stack on real pinned OS threads.
//
// This is the paper's architecture run for real instead of modeled: each
// server role is an OS thread on (ideally) its own core, and every hop is a
// lock-free SPSC ring (ThreadChannel) — the same topology the simulator
// wires with SimChannels:
//
//   app ──data──▶ tcp ──data──▶ ip ──data──▶ peer        (full stack)
//                  ◀───acks──── ip ◀───acks───┘
//   app ═══════════════payload══════════════▶ peer
//   wd ◀──ack── {app,tcp,ip,peer,udp} ◀──heartbeat── wd
//
//   app ──data──▶ tcp ──data──▶ peer                      (mini, 3 servers)
//                  ◀───acks─────────┘
//   app ═════════payload═══════▶ peer
//
// Every ring slot is a fixed-size POD, faithful to NewtOS's fixed-slot
// shared-memory channels. The stack rings carry only a one-line header
// (RtMsg: type, len, seq, offset, birth stamp); a data segment's bytes
// travel once, from app to peer, on their own app/peer payload ring
// (RtPayload) — the live counterpart of the DES Msg carrying a PacketPtr
// rather than the bytes. The data path is FIFO end to end with no drops,
// so the payload at the front of that ring always belongs to the next data
// header the peer pops. Unlike the simulator's, the payload bytes are real:
// the app writes each segment from a deterministic pattern and the peer
// verifies every byte, and that the payload's offset is the header's, so
// "byte-identical stream" is checked against actual memory, not just chunk
// sizes.
//
// Flow control mirrors TCP's: the tcp thread forwards a segment only when
// it fits the advertised window (in-flight bytes), advancing on cumulative
// acks from the peer; the app↔tcp ring provides backpressure upstream. Every
// server loop is non-blocking (a forwarded message leaves its input ring
// only once the output took it, an ack or heartbeat ack the full ack ring
// refused waits in a one-slot pending buffer, and the loop keeps servicing
// its other inputs), so no thread ever waits on a ring and the ring graph
// cannot deadlock. A hop copies a header once: the
// producer constructs the slot only after the space check, and forwarders
// and the peer read the slot where it lies (Front, then PopFront). The app
// pushes a segment's payload before its header, and the payload ring holds
// one more segment than the data rings on the app→peer path together, so
// it never refuses the app.
//
// Shutdown is a quiesce protocol, not a cancellation: a kShutdown token
// rides the data path behind the last segment, bounces back along the ack
// path, and the watchdog broadcasts it over the heartbeat rings once the
// peer reports the transfer done. Each server exits only after seeing
// shutdown on every input it owns — post-join, every ring must satisfy
// pushes == pops with zero residue, and Run() reports that conservation
// check in the result.

#ifndef SRC_RUNTIME_LIVE_STACK_H_
#define SRC_RUNTIME_LIVE_STACK_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/metrics/histogram.h"
#include "src/runtime/engine.h"
#include "src/runtime/thread_channel.h"
#include "src/trace/recorder.h"

namespace newtos {

class ChannelChecker;

inline constexpr uint32_t kRtMaxPayload = 1460;  // one MSS of real bytes

// Fixed-size live header: one POD slot per stack-ring entry, no pointers
// and no payload — a message is wholly owned by whichever side of the ring
// it is on, so crossing threads never shares memory, and a hop moves one
// cache line. A data segment's bytes ride the app/peer payload ring.
struct RtMsg {
  enum class Type : uint8_t {
    kData = 0,
    kAck = 1,
    kShutdown = 2,
    kHeartbeat = 3,
    kHeartbeatAck = 4,
  };

  RtMsg() = default;
  RtMsg(Type t, uint32_t s, uint64_t off = 0) : type(t), seq(s), stream_off(off) {}

  Type type = Type::kData;
  uint16_t len = 0;         // payload bytes (kData only)
  uint32_t seq = 0;         // segment index / heartbeat round
  uint64_t stream_off = 0;  // kData: byte offset; kAck: cumulative acked bytes
  uint64_t born_ns = 0;     // RuntimeClock stamp at first push (latency)
};
static_assert(std::is_trivially_copyable_v<RtMsg>, "RtMsg must stay a POD slot");
static_assert(sizeof(RtMsg) <= kCacheLineBytes, "RtMsg must fit one cache line");

// The deterministic payload byte at absolute stream offset `off` — both ends
// compute it independently, so verification needs no reference copy. It
// depends only on `off % kRtPatternPeriod`.
constexpr unsigned char RtPatternByte(uint64_t off) {
  return static_cast<unsigned char>((off * 131) ^ (off >> 7));
}
inline constexpr uint64_t kRtPatternPeriod = uint64_t{1} << 15;

// One pattern period plus one payload, built at compile time: the payload of
// any segment is the contiguous run starting at `off % kRtPatternPeriod`, so
// filling is one memcpy and checking one memcmp, with no init in a transfer.
struct RtPatternTable {
  unsigned char bytes[kRtPatternPeriod + kRtMaxPayload];
};
constexpr RtPatternTable MakeRtPatternTable() {
  RtPatternTable t{};
  for (uint64_t i = 0; i < sizeof(t.bytes); ++i) {
    t.bytes[i] = RtPatternByte(i);
  }
  return t;
}
inline constexpr RtPatternTable kRtPattern = MakeRtPatternTable();

inline const unsigned char* RtPatternAt(uint64_t off) {
  return kRtPattern.bytes + (off % kRtPatternPeriod);
}

// One data segment's bytes, a slot of the app/peer payload ring: 23 whole
// cache lines, written once by the app and read once by the peer. It
// carries its own offset and length so the peer can check that it belongs
// to the header it arrived with.
struct alignas(kCacheLineBytes) RtPayload {
  // The pattern for stream bytes [off, off + n): one memcpy, constructed in
  // the ring slot by TryEmplace.
  RtPayload(uint64_t off, uint32_t n) : stream_off(off), len(n) {
    assert(n <= kRtMaxPayload);
    std::memcpy(bytes, RtPatternAt(off), n);
  }

  uint64_t stream_off;
  uint32_t len;
  unsigned char bytes[kRtMaxPayload];
};
static_assert(std::is_trivially_copyable_v<RtPayload>, "RtPayload must stay a POD slot");
static_assert(sizeof(RtPayload) == 23 * kCacheLineBytes, "RtPayload must not pad a 24th line");

// Bytes of `p` that differ from the pattern at p.stream_off. One memcmp when
// they all match; the per-byte count only runs on a mismatch, so the error
// total stays exact.
inline uint64_t RtPayloadErrors(const RtPayload& p) {
  assert(p.len <= kRtMaxPayload);
  const unsigned char* want = RtPatternAt(p.stream_off);
  if (std::memcmp(p.bytes, want, p.len) == 0) {
    return 0;
  }
  uint64_t errors = 0;
  for (uint32_t i = 0; i < p.len; ++i) {
    errors += p.bytes[i] != want[i];
  }
  return errors;
}

// The peer's check of data header `h` and the payload it pops with it: the
// payload's byte errors, plus one if the payload is not the header's (its
// offset or length differs), which would mean the two rings fell out of
// step.
inline uint64_t RtSegmentErrors(const RtMsg& h, const RtPayload& p) {
  const bool same_segment = p.stream_off == h.stream_off && p.len == h.len;
  return RtPayloadErrors(p) + (same_segment ? 0 : 1);
}

struct LiveStackConfig {
  uint64_t transfer_bytes = 1 << 20;  // fig2-small default: 1 MiB
  uint32_t mss = 1460;                // must match the DES TcpParams::mss
  size_t ring_capacity = 256;         // slots per data, ack and watchdog ring
  uint32_t window_bytes = 64 * 1460;  // tcp in-flight cap (cumulative acks)
  bool mini = false;                  // 3-server stack (app, tcp, peer)
  bool pin_threads = true;            // role i -> cpu i, if it exists
  RuntimePollPolicy poll;
  bool enable_trace = false;          // per-thread recorders, e2e async hops
};

// Post-join counters for one ring, for reporting and the ChannelChecker.
struct LiveRingStats {
  std::string name;
  uint64_t pushes = 0;
  uint64_t pops = 0;
  uint64_t full_retries = 0;
  uint64_t residue = 0;    // slots still occupied post-join (must be 0)
  uint64_t imposters = 0;  // SpscRing first-touch identity violations
};

struct LiveStackResult {
  // Delivered-stream fingerprint — directly comparable to Fig2DesResult.
  uint64_t delivered = 0;
  uint64_t chunks = 0;
  uint64_t digest = 0;

  uint64_t payload_errors = 0;    // RtSegmentErrors summed over the segments
  uint64_t heartbeat_rounds = 0;  // completed watchdog ping-pong rounds
  bool completed = false;         // transfer finished before the deadline
  bool conservation_ok = false;   // every ring: pushes == pops, residue 0
  double wall_seconds = 0.0;

  // Observed wiring in the canonical text format ("ring <name> consumer=<c>
  // producers=<p>", sorted by ring name): each ring's first-touch thread
  // tokens mapped back to role names; a side no thread ever touched has no
  // name. The wiring-equivalence gate compares
  // this against the static table (src/runtime/live_wiring.h).
  std::string wiring;

  LatencyHistogram latency;  // app-push -> peer-pop, per data segment
  std::vector<ThreadStats> threads;
  std::vector<LiveRingStats> rings;
  // Per-server trace recorders (empty unless config.enable_trace); export
  // with WriteChromeTraceMerged.
  std::vector<std::unique_ptr<TraceRecorder>> recorders;

  uint64_t TotalImposters() const {
    uint64_t n = 0;
    for (const LiveRingStats& r : rings) {
      n += r.imposters;
    }
    return n;
  }
};

// Runs the fig2 bulk transfer on the live stack and returns the result.
// Synchronous: spawns the server threads, waits for the quiesce protocol
// (or the deadline), joins, and audits the rings single-threaded.
LiveStackResult RunLiveFig2(const LiveStackConfig& config);

// Folds a live run's post-join ring summaries into a ChannelChecker, so
// both backends answer "did anything violate the channel protocol?" through
// the same reporting surface. No-op when checkers are compiled out.
void FoldIntoChecker(const LiveStackResult& result, ChannelChecker* checker);

// The watchdog attachment of one live server: heartbeats arrive on `in`,
// acks leave on `out`. Both are null for the mini stack and for the
// watchdog itself. Declared here so a test can drive the pending-ack path
// on a hand-filled ring; the watchdog's self-clocked rounds never fill an
// ack ring in a whole run.
struct WdPort {
  ThreadChannel<RtMsg>* in = nullptr;
  ThreadChannel<RtMsg>* out = nullptr;
  std::optional<uint32_t> pending_ack;  // round of an ack `out` refused
  bool active() const { return in != nullptr; }
};

// One non-blocking watchdog step of a server loop: retries a pending ack,
// then drains the heartbeat ring while no ack is pending, acking each
// kHeartbeat and setting *wd_done on kShutdown. Returns true if it moved a
// message.
bool ServiceWd(WdPort& wd, bool* wd_done);

// The ServiceWd part of an Idle recheck: true if its next call could move a
// message (a pending ack and room for it, or else a waiting heartbeat).
bool WdCanProgress(const WdPort& wd);

}  // namespace newtos

#endif  // SRC_RUNTIME_LIVE_STACK_H_

// A working, simplified TCP.
//
// Implements enough of RFC 793/5681/6298 to produce realistic transport
// dynamics over the simulated network: three-way handshake, MSS
// segmentation, cumulative ACKs with delayed-ACK, flow control with a
// persist timer, slow start, congestion avoidance, fast
// retransmit/recovery (Reno), RTO with Karn's rule and exponential
// backoff, FIN teardown and TIME_WAIT. Not implemented (documented
// simplifications): SACK, window scaling as an option (the codec applies a
// fixed scale), urgent data, and out-of-band control.
//
// Payload *contents* are not modeled — connections move byte counts with
// real sequence-number arithmetic (wraparound-safe). Out-of-order arrival,
// loss, duplication and reordering are all handled; tests inject each.

#ifndef SRC_NET_TCP_H_
#define SRC_NET_TCP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/net/packet.h"
#include "src/net/rtt_estimator.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/sim/timer_wheel.h"

namespace newtos {

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

const char* TcpStateName(TcpState s);

struct TcpParams {
  uint32_t mss = 1460;
  uint32_t rcv_wnd = 1 << 20;           // advertised receive window, bytes
  uint32_t init_cwnd_segments = 10;     // RFC 6928 initial window
  bool sack = false;                    // RFC 2018 selective acknowledgment
  SimTime rto_initial = 50 * kMillisecond;
  SimTime rto_min = 10 * kMillisecond;  // LAN-tuned, as a datacenter stack would
  SimTime rto_max = 4 * kSecond;
  bool delayed_ack = true;
  SimTime delayed_ack_timeout = 500 * kMicrosecond;
  uint32_t dupack_threshold = 3;
  SimTime time_wait = 10 * kMillisecond;  // shortened 2MSL for simulation
  // Tail loss probe (RFC 8985-style, simplified): when the whole window is a
  // short tail that loss would otherwise strand until RTO, fire one probe —
  // a retransmit of the highest unacked segment — after PTO = max(2*srtt, a
  // 2ms floor), then fall back to the normal backed-off RTO. Off by default:
  // the paper's figures were pinned without it.
  bool tail_loss_probe = false;
};

struct TcpStats {
  uint64_t segs_sent = 0;
  uint64_t segs_rcvd = 0;
  uint64_t bytes_sent = 0;       // payload bytes first-transmitted
  uint64_t bytes_acked = 0;      // payload bytes cumulatively acked
  uint64_t bytes_received = 0;   // in-order payload bytes delivered to the app
  uint64_t retransmits = 0;      // segments retransmitted (any cause)
  uint64_t timeouts = 0;         // RTO firings
  uint64_t fast_retransmits = 0;
  uint64_t dupacks_rcvd = 0;
  uint64_t ooo_segments = 0;     // out-of-order arrivals buffered
  uint64_t sack_retransmits = 0;  // hole-directed retransmissions (SACK only)
  uint64_t tlp_probes = 0;        // tail loss probes fired (before any RTO)
  // Integrity tripwire: segments carrying corruption flags that reached the
  // state machine anyway. Checksum verification below TCP (NIC offload +
  // per-server RX check) must keep this at zero; the fault-campaign
  // invariants fail a run where it is not.
  uint64_t corrupt_segments_accepted = 0;

  // Field-wise sum, for aggregating over connections.
  TcpStats& operator+=(const TcpStats& o) {
    static_assert(sizeof(TcpStats) == 13 * sizeof(uint64_t),
                  "TcpStats gained or lost a field: update operator+=");
    segs_sent += o.segs_sent;
    segs_rcvd += o.segs_rcvd;
    bytes_sent += o.bytes_sent;
    bytes_acked += o.bytes_acked;
    bytes_received += o.bytes_received;
    retransmits += o.retransmits;
    timeouts += o.timeouts;
    fast_retransmits += o.fast_retransmits;
    dupacks_rcvd += o.dupacks_rcvd;
    ooo_segments += o.ooo_segments;
    sack_retransmits += o.sack_retransmits;
    tlp_probes += o.tlp_probes;
    corrupt_segments_accepted += o.corrupt_segments_accepted;
    return *this;
  }
};

// One direction-pair TCP connection bound to a flow key. Demultiplexing and
// listening sockets live in TcpHost (src/net/tcp_host.h).
class TcpConnection {
 public:
  struct Callbacks {
    // Required: hands a ready segment to the layer below (IP).
    std::function<void(PacketPtr)> output;
    // Optional application notifications.
    std::function<void()> on_established;
    std::function<void(uint32_t bytes)> on_data;  // in-order payload delivered
    std::function<void()> on_drained;             // all submitted bytes acked
    std::function<void()> on_closed;              // reached kClosed
  };

  // `key.src_*` is the local end. The initial send sequence number is derived
  // deterministically from the key (reproducible runs). All four connection
  // timers live as intrusive nodes on `wheel` (one wake event per wheel, not
  // per flow); the wheel must outlive the connection.
  TcpConnection(Simulation* sim, TimerWheel* wheel, const FlowKey& key, const TcpParams& params,
                Callbacks callbacks);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Active open: sends SYN.
  void Connect();

  // Passive open: waits for SYN on this flow key.
  void Listen();

  // Queues `bytes` of application data for transmission. Always accepted
  // (the model's send buffer holds counts, not bytes). No-op after CloseSend.
  void Send(uint64_t bytes);

  // Half-close: FIN after all queued data. Idempotent.
  void CloseSend();

  // Hard reset: emits RST, drops to kClosed immediately.
  void Abort();

  // Input from the layer below. The packet must match this flow (reversed
  // key); the caller (TcpHost / the TCP server) guarantees demux.
  void OnSegment(const Packet& p);

  // --- Receive-side application consumption ---
  // By default received bytes are consumed instantly (window never closes).
  // Turning auto-consume off makes the advertised window track the unread
  // backlog; Read() opens it again (and may trigger a window update ACK).
  void SetAutoConsume(bool on);
  uint64_t Read(uint64_t max_bytes);
  uint64_t unread_bytes() const { return unread_bytes_; }

  // --- Introspection ---
  TcpState state() const { return state_; }
  const TcpStats& stats() const { return stats_; }
  const FlowKey& key() const { return key_; }
  uint32_t cwnd() const { return cwnd_; }
  uint32_t ssthresh() const { return ssthresh_; }
  SimTime srtt() const { return est_.srtt(); }
  SimTime rto() const { return est_.rto(); }
  int rto_backoff() const { return est_.backoff(); }
  uint32_t flight_size() const { return snd_nxt_ - snd_una_; }
  uint64_t send_backlog() const { return send_queue_bytes_; }
  uint32_t peer_window() const { return snd_wnd_; }

 private:
  // Sequence-number arithmetic (wraparound-safe).
  static bool SeqLt(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) < 0; }
  static bool SeqLeq(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) <= 0; }

  PacketPtr MakeSegment(uint8_t flags, uint32_t seq, uint32_t payload);
  void Emit(PacketPtr p);

  // --- SACK helpers (all ranges RELATIVE to iss_/irs_, wraparound-safe) ---
  // Merges [start, end) into a relative-range map.
  static void InsertRange(std::map<uint32_t, uint32_t>* m, uint32_t start, uint32_t end);
  // Records the blocks of an incoming ACK into the scoreboard.
  void AbsorbSackBlocks(const TcpHeader& h);
  // First un-SACKed hole at or after relative seq `from`; nullopt if none
  // below the relative data end. Returns {rel_start, rel_end (<= mss away)}.
  std::optional<std::pair<uint32_t, uint32_t>> NextHole(uint32_t from) const;
  // Retransmits one hole >= retran_high_; true if something was sent.
  bool RetransmitNextHole();
  void SendControl(uint8_t flags, uint32_t seq);
  void SendAck(bool forced);

  // Pumps the send window: transmits new data/FIN as cwnd+rwnd allow.
  void TrySend();
  uint32_t UsableWindow() const;
  uint32_t AdvertisedWindow() const;

  void EnterEstablished();
  void DeliverInOrder(const Packet& p);
  void ProcessAck(const Packet& p);
  void OnRetransmissionTimer();  // rto_node_ fired: dispatch TLP probe or RTO
  void OnRtoTimeout();
  void OnTlpTimeout();
  void ArmRto();
  void DisarmRto();
  void ArmPersist();
  void OnPersistTimeout();
  void EnterTimeWait();
  void ToClosed();
  void MaybeFin();

  // Timer-wheel trampolines (nodes carry a plain function pointer + arg).
  static void RtoFired(void* arg) { static_cast<TcpConnection*>(arg)->OnRetransmissionTimer(); }
  static void DelackFired(void* arg) { static_cast<TcpConnection*>(arg)->SendAck(true); }
  static void PersistFired(void* arg) { static_cast<TcpConnection*>(arg)->OnPersistTimeout(); }
  static void TimeWaitFired(void* arg) { static_cast<TcpConnection*>(arg)->ToClosed(); }

  Simulation* sim_;
  FlowKey key_;
  TcpParams params_;
  Callbacks cb_;

  TcpState state_ = TcpState::kClosed;

  // Causal trace flow id for this connection: lazily set to the first
  // segment's packet id and stamped into every later segment's trace_id.
  uint64_t trace_flow_ = 0;

  // Send side.
  uint32_t iss_ = 0;
  uint32_t snd_una_ = 0;  // oldest unacked seq
  uint32_t snd_nxt_ = 0;  // next seq to transmit
  uint32_t snd_wnd_ = 0;  // peer's advertised window
  uint64_t send_queue_bytes_ = 0;  // app bytes not yet assigned sequence space
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  uint32_t fin_seq_ = 0;

  // Congestion control.
  uint32_t cwnd_ = 0;
  uint32_t ssthresh_ = 0x7fffffff;
  uint32_t dupacks_ = 0;
  bool in_fast_recovery_ = false;
  uint32_t recover_ = 0;  // NewReno recovery point

  // SACK scoreboard: received-by-peer ranges, relative to iss_.
  std::map<uint32_t, uint32_t> sacked_;
  uint32_t retran_high_ = 0;  // relative: holes below this were already resent

  // RTT estimation, RTO backoff and Karn's rule (RFC 6298).
  RttEst est_;

  // Receive side.
  uint32_t irs_ = 0;
  uint32_t rcv_nxt_ = 0;
  std::map<uint32_t, uint32_t> ooo_;  // relative seq (- irs_) -> end, beyond rcv_nxt_
  bool peer_fin_received_ = false;
  uint32_t peer_fin_seq_ = 0;
  bool auto_consume_ = true;
  uint64_t unread_bytes_ = 0;
  uint32_t segs_since_ack_ = 0;
  uint32_t last_advertised_wnd_ = 0;

  // Timers: intrusive nodes on the per-host wheel — O(1) arm/cancel, zero
  // allocation, flat per-socket memory. rto_node_ doubles as the TLP probe
  // timer (tlp_pending_ says which role the next firing plays).
  TimerWheel* wheel_;
  TimerNode rto_node_;
  TimerNode delack_node_;
  TimerNode persist_node_;
  TimerNode time_wait_node_;
  bool tlp_pending_ = false;     // rto_node_ is armed as a probe, not an RTO
  bool tlp_fired_ = false;       // one probe per RTO episode

  TcpStats stats_;
};

}  // namespace newtos

#endif  // SRC_NET_TCP_H_

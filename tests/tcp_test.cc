// TCP state-machine tests over a direct loopback wire with fault injection.

#include "src/net/tcp.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <deque>
#include <memory>

#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/timer_wheel.h"

namespace newtos {
namespace {

constexpr Ipv4Addr kClientIp = Ipv4(10, 0, 0, 1);
constexpr Ipv4Addr kServerIp = Ipv4(10, 0, 0, 2);
constexpr uint16_t kClientPort = 50000;
constexpr uint16_t kServerPort = 80;

// Two TcpConnections joined by a delayed wire. Tests can drop or reorder
// segments via the filter hook.
class TcpPairTest : public ::testing::Test {
 protected:
  void Build(TcpParams params = {}) {
    params_ = params;
    const FlowKey client_key{kClientIp, kServerIp, kClientPort, kServerPort};
    TcpConnection::Callbacks ca;
    ca.output = [this](PacketPtr p) { Deliver(std::move(p), /*to_server=*/true); };
    client_ = std::make_unique<TcpConnection>(&sim_, &wheel_, client_key, params_, std::move(ca));

    TcpConnection::Callbacks cb;
    cb.output = [this](PacketPtr p) { Deliver(std::move(p), /*to_server=*/false); };
    server_ = std::make_unique<TcpConnection>(&sim_, &wheel_, client_key.Reversed(), params_,
                                              std::move(cb));
    server_->Listen();
  }

  void Deliver(PacketPtr p, bool to_server) {
    ++segments_on_wire_;
    if (drop_filter_ && drop_filter_(*p, to_server)) {
      ++dropped_;
      return;
    }
    sim_.Schedule(wire_delay_, [this, p = std::move(p), to_server] {
      TcpConnection* dst = to_server ? server_.get() : client_.get();
      if (dst != nullptr) {
        dst->OnSegment(*p);
      }
    });
  }

  Simulation sim_;
  TimerWheel wheel_{&sim_};  // before the connections: they cancel into it on destruction
  TcpParams params_;
  std::unique_ptr<TcpConnection> client_;
  std::unique_ptr<TcpConnection> server_;
  SimTime wire_delay_ = 50 * kMicrosecond;
  std::function<bool(const Packet&, bool to_server)> drop_filter_;
  uint64_t segments_on_wire_ = 0;
  uint64_t dropped_ = 0;
};

TEST_F(TcpPairTest, HandshakeEstablishesBothSides) {
  Build();
  bool client_up = false;
  client_->Connect();
  sim_.RunFor(10 * kMillisecond);
  (void)client_up;
  EXPECT_EQ(client_->state(), TcpState::kEstablished);
  EXPECT_EQ(server_->state(), TcpState::kEstablished);
}

TEST_F(TcpPairTest, BulkTransferDeliversEveryByte) {
  Build();
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  ASSERT_EQ(client_->state(), TcpState::kEstablished);

  constexpr uint64_t kBytes = 1 << 20;  // 1 MiB
  client_->Send(kBytes);
  sim_.RunFor(2 * kSecond);

  EXPECT_EQ(server_->stats().bytes_received, kBytes);
  EXPECT_EQ(client_->stats().bytes_acked, kBytes);
  EXPECT_EQ(client_->stats().retransmits, 0u);
  EXPECT_EQ(client_->send_backlog(), 0u);
}

TEST_F(TcpPairTest, SlowStartGrowsCongestionWindow) {
  Build();
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  const uint32_t initial_cwnd = client_->cwnd();
  client_->Send(4 << 20);
  sim_.RunFor(2 * kSecond);
  EXPECT_GT(client_->cwnd(), initial_cwnd);
}

TEST_F(TcpPairTest, GracefulCloseReachesClosedOnBothSides) {
  Build();
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  client_->Send(10000);
  sim_.RunFor(50 * kMillisecond);

  client_->CloseSend();
  sim_.RunFor(50 * kMillisecond);
  EXPECT_EQ(server_->state(), TcpState::kCloseWait);

  server_->CloseSend();
  sim_.RunFor(1 * kSecond);  // includes TIME_WAIT expiry
  EXPECT_EQ(client_->state(), TcpState::kClosed);
  EXPECT_EQ(server_->state(), TcpState::kClosed);
  EXPECT_EQ(server_->stats().bytes_received, 10000u);
}

TEST_F(TcpPairTest, LossyLinkStillDeliversEverything) {
  Build();
  Rng rng(1234);
  drop_filter_ = [&rng](const Packet&, bool) { return rng.Bernoulli(0.05); };
  client_->Connect();
  sim_.RunFor(200 * kMillisecond);
  ASSERT_EQ(client_->state(), TcpState::kEstablished);

  constexpr uint64_t kBytes = 512 * 1024;
  client_->Send(kBytes);
  sim_.RunFor(20 * kSecond);

  EXPECT_EQ(server_->stats().bytes_received, kBytes);
  EXPECT_GT(client_->stats().retransmits, 0u);
}

TEST_F(TcpPairTest, SingleDropTriggersFastRetransmit) {
  Build();
  int data_segments_seen = 0;
  drop_filter_ = [&data_segments_seen](const Packet& p, bool to_server) {
    if (to_server && p.payload_bytes > 0) {
      ++data_segments_seen;
      return data_segments_seen == 5;  // drop exactly the 5th data segment
    }
    return false;
  };
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  client_->Send(256 * 1024);
  sim_.RunFor(5 * kSecond);

  EXPECT_EQ(server_->stats().bytes_received, 256u * 1024u);
  EXPECT_GE(client_->stats().fast_retransmits, 1u);
}

TEST_F(TcpPairTest, ReorderedSegmentsAreReassembled) {
  Build();
  // Swap adjacent data segments heading to the server by delaying every
  // second one an extra wire delay.
  int count = 0;
  drop_filter_ = nullptr;
  // Use a custom deliver path: hold one segment back.
  PacketPtr held;
  drop_filter_ = [this, &count, &held](const Packet& p, bool to_server) {
    if (!to_server || p.payload_bytes == 0) {
      return false;
    }
    ++count;
    if (count % 7 == 3) {
      // Capture and re-inject after the next segment (extra delay).
      auto copy = std::make_shared<Packet>(p);
      sim_.Schedule(3 * wire_delay_, [this, copy] { server_->OnSegment(*copy); });
      return true;  // "drop" the original: the copy arrives late
    }
    return false;
  };
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  client_->Send(128 * 1024);
  sim_.RunFor(5 * kSecond);

  EXPECT_EQ(server_->stats().bytes_received, 128u * 1024u);
  EXPECT_GT(server_->stats().ooo_segments, 0u);
}

TEST_F(TcpPairTest, ZeroWindowStallsAndReadReopens) {
  TcpParams p;
  p.rcv_wnd = 64 * 1024;
  Build(p);
  server_->SetAutoConsume(false);
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);

  constexpr uint64_t kBytes = 256 * 1024;  // 4x the receive window
  client_->Send(kBytes);
  sim_.RunFor(500 * kMillisecond);

  // Receiver window must have filled; sender stalls.
  EXPECT_GE(server_->unread_bytes(), 60u * 1024u);
  EXPECT_LT(client_->stats().bytes_acked, kBytes);
  const uint64_t acked_stalled = client_->stats().bytes_acked;

  // Drain the receive buffer in chunks; window updates restart the sender.
  for (int i = 0; i < 16; ++i) {
    server_->Read(32 * 1024);
    sim_.RunFor(200 * kMillisecond);
  }
  EXPECT_EQ(server_->stats().bytes_received, kBytes);
  EXPECT_EQ(client_->stats().bytes_acked, kBytes);
  EXPECT_GT(client_->stats().bytes_acked, acked_stalled);
}

TEST_F(TcpPairTest, BlackoutRecoversViaRto) {
  Build();
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  ASSERT_EQ(client_->state(), TcpState::kEstablished);

  bool blackout = false;
  drop_filter_ = [&blackout](const Packet&, bool) { return blackout; };

  client_->Send(1 << 20);
  sim_.RunFor(200 * kMicrosecond);  // mid-transfer
  blackout = true;
  sim_.RunFor(300 * kMillisecond);
  blackout = false;
  sim_.RunFor(10 * kSecond);

  EXPECT_EQ(server_->stats().bytes_received, uint64_t{1} << 20);
  EXPECT_GT(client_->stats().timeouts, 0u);
}

TEST_F(TcpPairTest, RtoBackoffSequenceMatchesHandComputation) {
  Build();
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  ASSERT_EQ(client_->state(), TcpState::kEstablished);
  // The handshake carries no data, so no RTT sample exists yet and the RTO
  // sits at its initial value — the hand computation below depends on it.
  ASSERT_EQ(client_->srtt(), 0);
  ASSERT_EQ(client_->rto(), params_.rto_initial);

  bool blackout = true;
  drop_filter_ = [&blackout](const Packet&, bool) { return blackout; };

  // One segment into a black hole. With rto_initial = 50ms, retransmissions
  // fire at +50, +150, +350, +750ms after the transmit: the timer doubles
  // 50 -> 100 -> 200 -> 400 as the backoff climbs 1, 2, 3, 4.
  client_->Send(100);
  sim_.RunFor(49 * kMillisecond);
  EXPECT_EQ(client_->rto_backoff(), 0);
  EXPECT_EQ(client_->stats().timeouts, 0u);
  sim_.RunFor(2 * kMillisecond);  // t = 51ms
  EXPECT_EQ(client_->rto_backoff(), 1);
  EXPECT_EQ(client_->stats().timeouts, 1u);
  sim_.RunFor(100 * kMillisecond);  // t = 151ms
  EXPECT_EQ(client_->rto_backoff(), 2);
  sim_.RunFor(200 * kMillisecond);  // t = 351ms
  EXPECT_EQ(client_->rto_backoff(), 3);
  sim_.RunFor(400 * kMillisecond);  // t = 751ms
  EXPECT_EQ(client_->rto_backoff(), 4);
  EXPECT_EQ(client_->stats().timeouts, 4u);

  // Lift the blackout. The fifth timeout (t = 1550ms) bumps the backoff to 5
  // and its retransmission finally goes through; the ACK advances snd_una —
  // but per RFC 6298 (5.7) that ACK is for a *retransmitted* segment
  // (Karn-ambiguous, no fresh sample), so the backoff must NOT reset. The
  // pre-fix code reset it on any advance.
  blackout = false;
  sim_.RunFor(810 * kMillisecond);
  EXPECT_EQ(client_->stats().timeouts, 5u);
  EXPECT_EQ(client_->stats().bytes_acked, 100u);
  EXPECT_EQ(client_->rto_backoff(), 5);
  EXPECT_EQ(client_->srtt(), 0);  // tainted sample was discarded

  // New, never-retransmitted data yields a fresh sample: backoff resets.
  client_->Send(100);
  sim_.RunFor(5 * kMillisecond);
  EXPECT_EQ(client_->stats().bytes_acked, 200u);
  EXPECT_EQ(client_->rto_backoff(), 0);
  EXPECT_GT(client_->srtt(), 0);
}

TEST_F(TcpPairTest, TlpProbeRepairsTailLossBeforeRto) {
  TcpParams params;
  params.tail_loss_probe = true;
  Build(params);
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);

  // Prime the RTT estimator (TLP only arms once srtt is known).
  client_->Send(1000);
  sim_.RunFor(5 * kMillisecond);
  ASSERT_GT(client_->srtt(), 0);
  ASSERT_EQ(client_->rto(), params_.rto_min);  // LAN RTT clamps to the floor

  // Drop the next data segment once: a lost tail no dupacks can repair.
  int to_drop = 1;
  drop_filter_ = [&to_drop](const Packet& p, bool to_server) {
    if (to_server && p.payload_bytes > 0 && to_drop > 0) {
      --to_drop;
      return true;
    }
    return false;
  };
  client_->Send(500);
  // The probe fires at PTO = max(2*srtt, 2ms) = 2ms — well before the 10ms
  // RTO — and retransmits the tail, so the transfer completes RTO-free.
  sim_.RunFor(5 * kMillisecond);
  EXPECT_EQ(client_->stats().tlp_probes, 1u);
  EXPECT_EQ(client_->stats().timeouts, 0u);
  EXPECT_EQ(server_->stats().bytes_received, 1500u);
}

TEST_F(TcpPairTest, TlpFiresOncePerEpisodeThenFallsBackToRto) {
  TcpParams params;
  params.tail_loss_probe = true;
  Build(params);
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  client_->Send(1000);
  sim_.RunFor(5 * kMillisecond);
  ASSERT_GT(client_->srtt(), 0);

  // Total blackout: the probe cannot help. Exactly one probe per episode,
  // then the real backed-off RTO takes over.
  bool blackout = true;
  drop_filter_ = [&blackout](const Packet&, bool) { return blackout; };
  client_->Send(500);
  sim_.RunFor(50 * kMillisecond);
  EXPECT_EQ(client_->stats().tlp_probes, 1u);
  EXPECT_GE(client_->stats().timeouts, 1u);

  blackout = false;
  sim_.RunFor(2 * kSecond);
  EXPECT_EQ(server_->stats().bytes_received, 1500u);
  EXPECT_EQ(client_->stats().tlp_probes, 1u);  // still one: RTO episode never re-probes
}

TEST_F(TcpPairTest, TailLossWithoutTlpWaitsForRto) {
  Build();  // tail_loss_probe defaults off
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  client_->Send(1000);
  sim_.RunFor(5 * kMillisecond);

  int to_drop = 1;
  drop_filter_ = [&to_drop](const Packet& p, bool to_server) {
    if (to_server && p.payload_bytes > 0 && to_drop > 0) {
      --to_drop;
      return true;
    }
    return false;
  };
  client_->Send(500);
  sim_.RunFor(50 * kMillisecond);
  EXPECT_EQ(client_->stats().tlp_probes, 0u);
  EXPECT_GE(client_->stats().timeouts, 1u);  // only the RTO could repair the tail
  EXPECT_EQ(server_->stats().bytes_received, 1500u);
}

TEST_F(TcpPairTest, RstAbortsPeer) {
  Build();
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  client_->Abort();
  EXPECT_EQ(client_->state(), TcpState::kClosed);
  sim_.RunFor(5 * kMillisecond);
  EXPECT_EQ(server_->state(), TcpState::kClosed);
}

TEST_F(TcpPairTest, RetransmittedFinIsReAcked) {
  Build();
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);

  // Drop the first FIN-ACK ack from client so server retransmits its FIN.
  client_->CloseSend();
  sim_.RunFor(20 * kMillisecond);
  server_->CloseSend();
  sim_.RunFor(2 * kSecond);
  EXPECT_EQ(client_->state(), TcpState::kClosed);
  EXPECT_EQ(server_->state(), TcpState::kClosed);
}

TEST_F(TcpPairTest, DelayedAckReducesPureAckCount) {
  Build();
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  client_->Send(1 << 20);
  sim_.RunFor(2 * kSecond);

  // With delayed ACKs the server sends roughly one ACK per two segments.
  const uint64_t data_segs = client_->stats().segs_sent;
  const uint64_t acks = server_->stats().segs_sent;
  EXPECT_LT(acks, data_segs);
}

TEST_F(TcpPairTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t loss_seed) {
    Simulation sim;
    TimerWheel wheel(&sim);
    const FlowKey key{kClientIp, kServerIp, kClientPort, kServerPort};
    TcpParams params;
    std::unique_ptr<TcpConnection> a, b;
    Rng rng(loss_seed);
    auto wire = [&](PacketPtr p, TcpConnection** dst) {
      if (rng.Bernoulli(0.02)) {
        return;
      }
      sim.Schedule(40 * kMicrosecond, [p = std::move(p), dst] {
        if (*dst) (*dst)->OnSegment(*p);
      });
    };
    static TcpConnection* a_raw;
    static TcpConnection* b_raw;
    TcpConnection::Callbacks ca;
    ca.output = [&wire](PacketPtr p) { wire(std::move(p), &b_raw); };
    TcpConnection::Callbacks cb;
    cb.output = [&wire](PacketPtr p) { wire(std::move(p), &a_raw); };
    a = std::make_unique<TcpConnection>(&sim, &wheel, key, params, std::move(ca));
    b = std::make_unique<TcpConnection>(&sim, &wheel, key.Reversed(), params, std::move(cb));
    a_raw = a.get();
    b_raw = b.get();
    b->Listen();
    a->Connect();
    sim.RunFor(10 * kMillisecond);
    a->Send(200 * 1024);
    sim.RunFor(5 * kSecond);
    auto st = a->stats();
    a_raw = nullptr;
    b_raw = nullptr;
    return std::make_tuple(st.segs_sent, st.retransmits, b->stats().bytes_received);
  };
  EXPECT_EQ(run(77), run(77));
}

TEST_F(TcpPairTest, StatsCountersAreConsistent) {
  Build();
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  client_->Send(100 * 1024);
  sim_.RunFor(2 * kSecond);

  const TcpStats& cs = client_->stats();
  EXPECT_EQ(cs.bytes_sent, 100u * 1024u);
  EXPECT_EQ(cs.bytes_acked, 100u * 1024u);
  EXPECT_GE(cs.segs_sent, (100u * 1024u) / params_.mss);
  EXPECT_EQ(cs.timeouts, 0u);
}

TEST_F(TcpPairTest, SackAdvertisesOutOfOrderRanges) {
  TcpParams p;
  p.sack = true;
  Build(p);
  // Capture ACKs heading back to the client and look for SACK blocks.
  int acks_with_sack = 0;
  drop_filter_ = [&acks_with_sack](const Packet& pkt, bool to_server) {
    if (to_server && pkt.payload_bytes > 0) {
      static int data_count = 0;
      ++data_count;
      if (data_count == 3) {
        return true;  // drop one mid-stream segment to open a hole
      }
    }
    if (!to_server && pkt.tcp.n_sack > 0) {
      ++acks_with_sack;
    }
    return false;
  };
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  client_->Send(64 * 1024);
  sim_.RunFor(2 * kSecond);
  EXPECT_GT(acks_with_sack, 0);
  EXPECT_EQ(server_->stats().bytes_received, 64u * 1024u);
}

TEST_F(TcpPairTest, SackRepairsMultipleLossesFasterThanReno) {
  // Drop several distinct segments of the same flight. NewReno repairs one
  // hole per round trip (or falls back to a timeout); SACK fills multiple
  // holes per RTT, so the transfer completes sooner with no more timeouts.
  struct Outcome {
    TcpStats stats;
    SimTime completed_at = 0;
  };
  auto run = [this](bool sack) {
    TcpParams p;
    p.sack = sack;
    Build(p);
    int data_count = 0;
    drop_filter_ = [&data_count](const Packet& pkt, bool to_server) {
      if (to_server && pkt.payload_bytes > 0) {
        ++data_count;
        return data_count == 20 || data_count == 24 || data_count == 28 || data_count == 32;
      }
      return false;
    };
    client_->Connect();
    sim_.RunFor(5 * kMillisecond);
    constexpr uint64_t kBytes = 256 * 1024;
    const SimTime started = sim_.Now();
    client_->Send(kBytes);
    Outcome o;
    while (client_->stats().bytes_acked < kBytes && sim_.Now() - started < 30 * kSecond) {
      sim_.RunFor(50 * kMicrosecond);  // fine-grained: recovery differences are RTT-scale
    }
    o.completed_at = sim_.Now() - started;  // transfer duration
    EXPECT_EQ(server_->stats().bytes_received, kBytes);
    o.stats = client_->stats();
    return o;
  };
  const Outcome reno = run(false);
  const Outcome sack = run(true);
  EXPECT_GT(sack.stats.sack_retransmits, 0u);
  EXPECT_LE(sack.stats.timeouts, reno.stats.timeouts);
  EXPECT_LT(sack.completed_at, reno.completed_at)
      << "SACK must finish the lossy transfer sooner than NewReno";
}

TEST_F(TcpPairTest, SackLossyLinkStillDeliversEverything) {
  TcpParams p;
  p.sack = true;
  Build(p);
  Rng rng(777);
  drop_filter_ = [&rng](const Packet&, bool) { return rng.Bernoulli(0.08); };
  client_->Connect();
  sim_.RunFor(500 * kMillisecond);
  ASSERT_EQ(client_->state(), TcpState::kEstablished);
  client_->Send(512 * 1024);
  sim_.RunFor(30 * kSecond);
  EXPECT_EQ(server_->stats().bytes_received, 512u * 1024u);
  EXPECT_EQ(client_->stats().bytes_acked, 512u * 1024u);
}

// Parameterized sweep: transfers of many sizes all complete exactly.
class TcpTransferSize : public TcpPairTest, public ::testing::WithParamInterface<uint64_t> {};

TEST_P(TcpTransferSize, TransfersExactly) {
  Build();
  client_->Connect();
  sim_.RunFor(5 * kMillisecond);
  const uint64_t bytes = GetParam();
  client_->Send(bytes);
  sim_.RunFor(10 * kSecond);
  EXPECT_EQ(server_->stats().bytes_received, bytes);
  EXPECT_EQ(client_->stats().bytes_acked, bytes);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpTransferSize,
                         ::testing::Values(1, 100, 1460, 1461, 4096, 65536, 1000000, 1460 * 7,
                                           (1 << 21) + 13));

// Parameterized loss sweep: completion under increasing loss rates.
class TcpLossSweep : public TcpPairTest, public ::testing::WithParamInterface<int> {};

TEST_P(TcpLossSweep, CompletesUnderLoss) {
  Build();
  Rng rng(99 + static_cast<uint64_t>(GetParam()));
  const double loss = GetParam() / 100.0;
  drop_filter_ = [&rng, loss](const Packet&, bool) { return rng.Bernoulli(loss); };
  client_->Connect();
  sim_.RunFor(500 * kMillisecond);
  if (client_->state() != TcpState::kEstablished) {
    sim_.RunFor(2 * kSecond);  // handshake may need retries at high loss
  }
  ASSERT_EQ(client_->state(), TcpState::kEstablished);
  client_->Send(100 * 1024);
  sim_.RunFor(60 * kSecond);
  EXPECT_EQ(server_->stats().bytes_received, 100u * 1024u) << "loss=" << loss;
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweep, ::testing::Values(0, 1, 2, 5, 10, 15));

// Aggregators sum connections with operator+=, so a field it skipped would
// read 0 in every aggregate. Each field gets a distinct value, and the sum
// must be field-wise whatever the field order.
TEST(TcpStats, SumCarriesEveryField) {
  constexpr size_t kFields = sizeof(TcpStats) / sizeof(uint64_t);
  uint64_t a[kFields];
  uint64_t b[kFields];
  for (size_t i = 0; i < kFields; ++i) {
    a[i] = i + 1;
    b[i] = 1000 * (i + 1);
  }
  TcpStats x;
  TcpStats y;
  std::memcpy(&x, a, sizeof(x));
  std::memcpy(&y, b, sizeof(y));
  x += y;
  uint64_t sum[kFields];
  std::memcpy(sum, &x, sizeof(x));
  for (size_t i = 0; i < kFields; ++i) {
    EXPECT_EQ(sum[i], 1001 * (i + 1)) << "TcpStats field " << i;
  }
  constexpr size_t kTlp = offsetof(TcpStats, tlp_probes) / sizeof(uint64_t);
  EXPECT_EQ(x.tlp_probes, a[kTlp] + b[kTlp]);
}

}  // namespace
}  // namespace newtos

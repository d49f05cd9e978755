// TCP server: owns the machine's TCP protocol state (a TcpHost) and runs it
// as a pinned, message-driven stack stage.
//
// Inputs: inbound segments (from PF/IP) and socket requests (from apps or
// the syscall gateway). Internal work sources: the protocol's outbound
// segment queue (every segment the state machines generate is charged
// tx_segment cycles before it leaves for IP) and the application event queue
// (established/data/drained/closed notifications, charged evt_deliver each).
// Timers (RTO, delayed ACK, persist) fire on simulated time and enqueue
// their output into the same internal queues, so retransmissions pay the
// server's cycle costs like any other segment.
//
// The socket layer (the (app, handle) <-> connection maps, accept handles,
// listeners, kSock* dispatch and both internal queues) is a SocketTable,
// shared with MonolithicStack (src/os/socket_table.h).
//
// Crash model: with checkpointing off (the default), a crash destroys every
// connection — apps get kEvtClosed on restart and listeners are re-created
// from the recovery set, mirroring a stateful-server microreboot. With
// checkpointing on, protocol state survives in a replica and only in-queue
// messages are lost; TCP's own retransmission repairs the gap. Fig. 8
// compares the two.

#ifndef SRC_OS_TCP_SERVER_H_
#define SRC_OS_TCP_SERVER_H_

#include <cstdint>
#include <vector>

#include "src/net/tcp_host.h"
#include "src/os/costs.h"
#include "src/os/server.h"
#include "src/os/socket_table.h"

namespace newtos {

class TcpServer : public Server {
 public:
  TcpServer(Simulation* sim, Ipv4Addr addr, const TcpCosts& costs, const TcpParams& tcp_params,
            size_t chan_capacity, const ChannelCostModel& chan_cost);

  // Downstream to the IP server's TX channel.
  void set_ip_tx(Chan* ip_tx) { ip_tx_ = ip_tx; }

  Chan* rx_in() { return rx_in_; }
  Chan* app_in() { return app_in_; }

  // Registers an application event channel; the returned id goes into
  // Msg::app on every request the application sends.
  uint32_t RegisterApp(Chan* app_events);

  // Checkpointed recovery: protocol state survives crashes.
  void set_checkpointing(bool on) { checkpointing_ = on; }
  bool checkpointing() const { return checkpointing_; }

  // Sharded deployment: this instance is shard `index` of `count`. Inbound
  // flows are routed here by symmetric flow hash (IP/PF demux); outbound
  // connections pick ephemeral ports that hash back to this shard; accepted
  // handles encode the shard (SocketTable::ShardOfAcceptHandle) so the
  // gateway can route follow-up requests. Call before any traffic.
  void set_shard(uint32_t index, uint32_t count) { table_.set_shard(index, count); }

  // Exposes protocol state for tests/metrics (do not mutate mid-run).
  TcpHost& host() { return table_.host(); }

  const TcpCosts& costs() const { return costs_; }
  uint64_t segments_in() const { return segments_in_; }
  uint64_t segments_out() const { return segments_out_; }
  uint64_t events_out() const { return events_out_; }
  // Segments discarded on RX because the TCP checksum would not verify
  // (Packet::corrupt carries kCorruptL4 from wire fault injection).
  uint64_t rx_checksum_drops() const { return rx_checksum_drops_; }

 protected:
  Cycles CostFor(const Msg& msg) override;
  void Handle(const Msg& msg) override;
  void OnCrash() override;
  void OnRestart() override;

 private:
  TcpCosts costs_;
  Chan* rx_in_ = nullptr;
  Chan* app_in_ = nullptr;
  Chan* ip_tx_ = nullptr;
  SocketTable table_;
  std::vector<Chan*> apps_;  // index = app id

  bool checkpointing_ = false;
  uint64_t segments_in_ = 0;
  uint64_t segments_out_ = 0;
  uint64_t events_out_ = 0;
  uint64_t rx_checksum_drops_ = 0;
};

}  // namespace newtos

#endif  // SRC_OS_TCP_SERVER_H_

// Messages exchanged between multiserver stack components over channels.
//
// One flat message struct keeps channels homogeneous (a real shared-memory
// channel carries fixed-size slots). Packets travel by shared_ptr — NewtOS
// likewise passed pool pointers, not payload copies, between servers.

#ifndef SRC_OS_MESSAGE_H_
#define SRC_OS_MESSAGE_H_

#include <cstdint>

#include "src/net/packet.h"
#include "src/trace/trace_event.h"

namespace newtos {

enum class MsgType : uint8_t {
  // Packet movement.
  kPacketRx,  // a received packet moving up the stack
  kPacketTx,  // a packet moving down toward the NIC

  // Socket API, application -> TCP/UDP server.
  kSockConnect,  // handle=app handle, addr=dst ip, value=dst port
  kSockListen,   // value=port
  kSockSend,     // handle, value=bytes
  kSockClose,    // handle
  kSockRead,     // handle, value=max bytes (only when auto-consume is off)

  // Socket events, TCP/UDP server -> application.
  kEvtEstablished,  // handle (0 -> newly accepted: value carries server handle)
  kEvtAccepted,     // handle=new server-assigned handle, value=listen port
  kEvtData,         // handle, value=bytes delivered in order
  kEvtDrained,      // handle: all submitted bytes acked
  kEvtClosed,       // handle

  // Control plane.
  kCtlCrash,      // fault injection: the receiving server crashes
  kCtlRestart,    // recovery manager: reinitialize
  kCtlHeartbeat,  // watchdog liveness probe; value carries the sequence number
};

// Number of MsgType values; sizes per-type lookup tables (trace name ids).
inline constexpr size_t kNumMsgTypes = static_cast<size_t>(MsgType::kCtlHeartbeat) + 1;

struct Msg {
  MsgType type = MsgType::kPacketRx;
  PacketPtr packet;     // valid for kPacketRx/kPacketTx
  uint64_t handle = 0;  // socket handle (app-scoped)
  uint64_t value = 0;   // bytes / generic argument
  Ipv4Addr addr = 0;    // peer address for kSockConnect / UDP send
  uint16_t port = 0;    // peer or listen port
  uint32_t app = 0;     // application id (assigned by the L4 server at registration)
};

const char* MsgTypeName(MsgType t);

// Socket request builders, shared by every socket front end (AppProcess and
// MonolithicStack::Api). The sender stamps Msg::app.
inline Msg ConnectRequest(uint64_t handle, Ipv4Addr dst, uint16_t port) {
  Msg m;
  m.type = MsgType::kSockConnect;
  m.handle = handle;
  m.addr = dst;
  m.port = port;
  return m;
}
inline Msg ListenRequest(uint16_t port) {
  Msg m;
  m.type = MsgType::kSockListen;
  m.port = port;
  return m;
}
inline Msg SendRequest(uint64_t handle, uint64_t bytes) {
  Msg m;
  m.type = MsgType::kSockSend;
  m.handle = handle;
  m.value = bytes;
  return m;
}
inline Msg CloseRequest(uint64_t handle) {
  Msg m;
  m.type = MsgType::kSockClose;
  m.handle = handle;
  return m;
}

// Causal ids for tracing (found by SimChannel<Msg> via ADL): a message
// carrying a packet is traceable by the packet's unique id (hop pairing) and
// its flow id; control/socket messages are not followed across hops.
inline TraceIds TraceIdsOf(const Msg& m) {
  if (m.packet) {
    return TraceIds{m.packet->id, m.packet->trace_id};
  }
  return {};
}

}  // namespace newtos

#endif  // SRC_OS_MESSAGE_H_

#include "src/runtime/fig2_ref.h"

#include "src/core/testbed.h"
#include "src/fault/invariants.h"
#include "src/net/tcp_host.h"
#include "src/os/socket_api.h"
#include "src/os/stack.h"
#include "src/os/tcp_server.h"
#include "src/workload/iperf.h"

namespace newtos {

Fig2DesResult RunFig2Des(uint64_t transfer_bytes) {
  Testbed tb;
  SocketApi* api = tb.stack()->CreateApp("fig2ref", tb.machine().core(0));

  Fig2DesResult r;
  StreamIntegrityChecker integrity;
  TcpHost::AppHooks hooks;
  hooks.on_data = [&integrity](TcpConnection*, uint32_t bytes) { integrity.OnChunk(bytes); };
  tb.peer().tcp().Listen(kIperfPort, hooks, tb.peer().tcp_params());

  // Submit the whole transfer in one Send: segmentation is then TCP's alone
  // (full-MSS segments and one tail), not an artifact of burst re-arming.
  api->SetEventHandler([api, transfer_bytes](const Msg& m) {
    if (m.type == MsgType::kEvtEstablished) {
      api->Send(m.handle, transfer_bytes);
    }
  });
  api->Connect(tb.peer_addr(), kIperfPort);

  const SimTime t0 = tb.sim().Now();
  // Generously bounded run, checked in slices so completion ends it early.
  for (int slice = 0; slice < 200 && integrity.delivered() < transfer_bytes; ++slice) {
    tb.sim().RunFor(10 * kMillisecond);
  }
  r.delivered = integrity.delivered();
  r.chunks = integrity.chunks();
  r.digest = integrity.digest();
  r.completed = r.delivered == transfer_bytes;
  r.sim_seconds = ToSeconds(tb.sim().Now() - t0);
  r.sim_events = tb.sim().events_processed();
  for (const TcpConnection* c : tb.stack()->tcp()->host().Connections()) {
    r.retransmits += c->stats().retransmits;
  }
  return r;
}

}  // namespace newtos

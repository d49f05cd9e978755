// Tab. 5 — Connection churn: the handshake/teardown path on slow cores.
//
// Short-lived connections (HTTP/1.0 style: connect, one request, close) are
// the stress case for the TCP server's control path — SYN handling, accept
// dispatch, FIN teardown, TIME_WAIT reaping — none of which appears in bulk
// streaming. Sweeping the stack frequency answers whether the control path
// knees earlier than the data path.
//
// Expected shape: at full clock the handshake overhead is hidden behind the
// closed-loop latency (churn costs only a few percent). Once the stack
// saturates, the control path's extra segments and events (SYN exchange,
// FIN exchange, accept/close notifications — roughly double the messages of
// a keep-alive request) come straight out of throughput, so churn serves
// about half the keep-alive rate below the knee. Keep-alive wins everywhere.
//
// The timer wheel's scale at 10^6 concurrent connections is a gate, not a
// table: MillionFlowAllocGate in tests/alloc_gate_test.cc.

#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "src/core/steering.h"
#include "src/metrics/table.h"

namespace newtos {
namespace {

double MeasureChurnRps(FreqKhz stack_freq, bool keep_alive) {
  Testbed tb;
  DedicatedSlowPlan(*tb.stack(), stack_freq, 3'600'000 * kKhz).Apply(tb.machine());
  SocketApi* api = tb.stack()->CreateApp("httpd", tb.machine().core(0));
  HttpParams hp;
  hp.concurrency = 32;
  hp.server_compute_cycles = 2'000;
  hp.keep_alive = keep_alive;
  HttpServerApp server(api, hp);
  server.Start();
  tb.sim().RunFor(2 * kMillisecond);
  HttpPeerClient client(&tb.peer(), tb.sut_addr(), hp);
  client.Start();
  tb.sim().RunFor(100 * kMillisecond);
  client.ResetWindow(tb.sim().Now());
  tb.sim().RunFor(200 * kMillisecond);
  return client.window().EventsPerSec(tb.sim().Now());
}

bool RunTable(const char* argv0) {
  Table t({"stack_ghz", "churn_rps", "keepalive_rps", "churn_cost"});
  for (FreqKhz f : {3'600'000 * kKhz, 2'400'000 * kKhz, 1'600'000 * kKhz, 1'200'000 * kKhz,
                    800'000 * kKhz}) {
    const double churn = MeasureChurnRps(f, false);
    const double ka = MeasureChurnRps(f, true);
    t.AddRow({GhzStr(f), Table::Num(churn / 1e3, 1) + "k", Table::Num(ka / 1e3, 1) + "k",
              Table::Pct(1.0 - churn / ka)});
  }
  t.Print(std::cout, "Tab.5 — connection-per-request churn vs. keep-alive, by stack frequency");
  return WriteBenchCsv(t, argv0, "tab5_conn_churn");
}

}  // namespace
}  // namespace newtos

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
  return newtos::RunTable(argv[0]) ? 0 : 1;
}

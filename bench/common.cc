#include "bench/common.h"

#include <cstdio>
#include <filesystem>

namespace newtos {

BulkResult MeasureBulkTx(const TestbedOptions& options,
                         const std::function<void(Testbed&)>& configure, SimTime warmup,
                         SimTime window, int connections) {
  Testbed tb(options);
  if (configure) {
    configure(tb);
  }

  SocketApi* api = options.monolithic ? static_cast<SocketApi*>(tb.mono()->CreateApp())
                                      : tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  sp.connections = connections;
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();

  tb.sim().RunFor(warmup);
  tb.machine().ResetStatsAt(tb.sim().Now());
  sink.window().Reset(tb.sim().Now());
  const SimTime t0 = tb.sim().Now();
  tb.sim().RunFor(window);
  const SimTime now = tb.sim().Now();

  BulkResult r;
  r.goodput_gbps = sink.window().GbitsPerSec(now);
  r.bytes = sink.window().bytes();
  r.joules = tb.machine().PackageJoulesAt(now);
  r.avg_pkg_watts = r.joules / ToSeconds(window);
  for (int i = 0; i < tb.machine().num_cores(); ++i) {
    r.core_util.push_back(tb.machine().core(i)->UtilizationSince(t0, now));
  }
  return r;
}

HttpResult MeasureHttp(const TestbedOptions& options, const HttpParams& params,
                       const std::function<void(Testbed&)>& configure, SimTime warmup,
                       SimTime window) {
  Testbed tb(options);
  if (configure) {
    configure(tb);
  }

  SocketApi* api = options.monolithic ? static_cast<SocketApi*>(tb.mono()->CreateApp())
                                      : tb.stack()->CreateApp("httpd", tb.machine().core(0));
  HttpServerApp server(api, params);
  server.Start();
  tb.sim().RunFor(kMillisecond);
  HttpPeerClient client(&tb.peer(), tb.sut_addr(), params);
  client.Start();

  tb.sim().RunFor(warmup);
  tb.machine().ResetStatsAt(tb.sim().Now());
  client.ResetWindow(tb.sim().Now());
  tb.sim().RunFor(window);
  const SimTime now = tb.sim().Now();

  HttpResult r;
  r.responses = client.window().events();
  r.responses_per_sec = client.window().EventsPerSec(now);
  r.p50 = client.latency().P50();
  r.p99 = client.latency().P99();
  r.joules = tb.machine().PackageJoulesAt(now);
  r.avg_pkg_watts = r.joules / ToSeconds(window);
  const int app_core = options.monolithic ? kMonolithicCore : 0;
  r.app_freq = tb.machine().core(app_core)->frequency();
  return r;
}

std::vector<FreqKhz> StackFrequencySweep() {
  return {3'600'000 * kKhz, 3'200'000 * kKhz, 2'800'000 * kKhz, 2'400'000 * kKhz,
          2'000'000 * kKhz, 1'600'000 * kKhz, 1'200'000 * kKhz, 800'000 * kKhz,
          600'000 * kKhz};
}

std::string GhzStr(FreqKhz f) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f", ToGhz(f));
  return buf;
}

std::string CsvPath(const char* argv0, const std::string& name) {
  // CSVs land in a `results/` directory next to the binaries, so that
  // running every file in the bench directory never trips over data files.
  std::string path(argv0);
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const std::string results = dir + "/results";
  std::filesystem::create_directories(results);
  return results + "/" + name + ".csv";
}

bool WriteBenchCsv(const Table& t, const char* argv0, const std::string& name) {
  const std::string path = CsvPath(argv0, name);
  if (!t.WriteCsvFile(path)) {
    std::fprintf(stderr, "warning: failed to write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace newtos

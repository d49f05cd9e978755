// explore — an interactive console for the simulated testbed.
//
//   $ ./explore                 # type `help` for commands
//   $ echo "load\nrun 200\nstat" | ./explore
//
// Drives the full system by hand: start workloads, re-steer frequencies,
// crash servers, advance simulated time, and inspect counters. Useful for
// building intuition about the model before reading the benches.

#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "src/newtos.h"

using namespace newtos;

namespace {

class Explorer {
 public:
  Explorer() { std::cout << "testbed up: 5 cores @3.6 GHz, 10 GbE, multiserver stack\n"; }

  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') {
      return true;
    }
    if (cmd == "quit" || cmd == "exit") {
      return false;
    }
    if (cmd == "help") {
      Help();
    } else if (cmd == "load") {
      Load();
    } else if (cmd == "run") {
      double ms = 100;
      in >> ms;
      tb_.sim().RunFor(static_cast<SimTime>(ms * kMillisecond));
      std::cout << "t = " << FormatTime(tb_.sim().Now()) << "\n";
    } else if (cmd == "freq") {
      int core = -1;
      double ghz = 0;
      in >> core >> ghz;
      if (core < 0 || core >= tb_.machine().num_cores() || ghz <= 0) {
        std::cout << "usage: freq <core 0-4> <ghz>\n";
      } else {
        tb_.machine().core(core)->SetFrequency(static_cast<FreqKhz>(ghz * kGhz));
        std::cout << "core " << core << " -> "
                  << ToGhz(tb_.machine().core(core)->frequency()) << " GHz\n";
      }
    } else if (cmd == "crash") {
      std::string who;
      in >> who;
      Crash(who);
    } else if (cmd == "stat") {
      Stat();
    } else {
      std::cout << "unknown command '" << cmd << "' (try: help)\n";
    }
    return true;
  }

 private:
  void Help() {
    std::cout << "  load            start an iperf bulk transfer to the peer\n"
                 "  run [ms]        advance simulated time (default 100 ms)\n"
                 "  freq <core> <g> set a core's frequency in GHz\n"
                 "  crash <server>  crash+auto-recover driver|ip|tcp|udp\n"
                 "  stat            goodput, per-core state, power\n"
                 "  quit            leave\n";
  }

  void Load() {
    if (sender_) {
      std::cout << "already loaded\n";
      return;
    }
    api_ = tb_.stack()->CreateApp("iperf", tb_.machine().core(0));
    IperfSender::Params sp;
    sp.dst = tb_.peer_addr();
    sender_ = std::make_unique<IperfSender>(api_, sp);
    sink_ = std::make_unique<IperfPeerSink>(&tb_.peer());
    sender_->Start();
    std::cout << "iperf started (run some time, then `stat`)\n";
  }

  void Crash(const std::string& who) {
    Server* victim = nullptr;
    if (who == "driver") {
      victim = tb_.stack()->driver();
    } else if (who == "ip") {
      victim = tb_.stack()->ip();
    } else if (who == "tcp") {
      victim = tb_.stack()->tcp();
    } else if (who == "udp") {
      victim = tb_.stack()->udp();
    } else {
      std::cout << "usage: crash driver|ip|tcp|udp\n";
      return;
    }
    mgr_.InjectCrash(victim, tb_.sim().Now() + kMicrosecond, tb_.stack()->RestartCycles(victim));
    std::cout << who << " will crash now and auto-recover (watch `stat` after `run`)\n";
  }

  void Stat() {
    const SimTime now = tb_.sim().Now();
    if (sink_) {
      std::cout << "  goodput (since last stat): "
                << sink_->window().GbitsPerSec(now) << " Gbit/s\n";
      sink_->window().Reset(now);
    }
    for (int i = 0; i < tb_.machine().num_cores(); ++i) {
      Core* c = tb_.machine().core(i);
      std::cout << "  core " << i << ": " << ToGhz(c->frequency()) << " GHz, "
                << c->work_items() << " work items\n";
    }
    std::cout << "  package: " << tb_.machine().PackageWatts() << " W now\n";
    for (Server* s : tb_.stack()->SystemServers()) {
      std::cout << "  " << s->name() << ": " << s->messages_processed() << " msgs"
                << (s->crashed() ? "  [CRASHED]" : "") << "\n";
    }
    for (const auto& inc : mgr_.incidents()) {
      std::cout << "  incident: " << inc.server << " recovered in "
                << (inc.recovered_at ? FormatTime(inc.RecoveryTime()) : "(pending)") << "\n";
    }
  }

  Testbed tb_;
  MicrorebootManager mgr_{&tb_.sim()};
  SocketApi* api_ = nullptr;
  std::unique_ptr<IperfSender> sender_;
  std::unique_ptr<IperfPeerSink> sink_;
};

}  // namespace

int main() {
  Explorer ex;
  std::string line;
  std::cout << "> " << std::flush;
  while (std::getline(std::cin, line)) {
    if (!ex.Dispatch(line)) {
      break;
    }
    std::cout << "> " << std::flush;
  }
  std::cout << "bye\n";
  return 0;
}

// SocketApi: the application-facing surface workloads program against.
//
// Workloads (iperf, HTTP) are written once against this interface and run
// unchanged on either architecture:
//   * MultiserverSocket — backed by an AppProcess whose requests/events
//     cross channels to the TCP server pinned elsewhere;
//   * MonolithicStack::Api — backed by the in-"kernel" stack sharing the
//     application's core (src/os/monolithic_stack.h).
// That symmetry is what makes the head-to-head comparisons (Tab. 2) fair:
// identical workload logic, identical protocol code, different architecture.
// Below this interface the socket layer is shared too: both front ends build
// their requests with the builders in message.h, and TcpServer and
// MonolithicStack each run them through a SocketTable (src/os/socket_table.h),
// so a socket call gets the same answer from either architecture.

#ifndef SRC_OS_SOCKET_API_H_
#define SRC_OS_SOCKET_API_H_

#include <functional>

#include "src/os/app_process.h"
#include "src/os/message.h"
#include "src/sim/simulation.h"

namespace newtos {

class SocketApi {
 public:
  virtual ~SocketApi() = default;

  // Socket events (kEvt*) arrive here. Set before generating traffic.
  virtual void SetEventHandler(std::function<void(const Msg&)> handler) = 0;

  virtual uint64_t Connect(Ipv4Addr dst, uint16_t port) = 0;
  virtual void Listen(uint16_t port) = 0;
  virtual void Send(uint64_t handle, uint64_t bytes) = 0;
  virtual void Close(uint64_t handle) = 0;

  // Application compute charged to the application's core.
  virtual void Compute(Cycles cycles, std::function<void()> then) = 0;

  virtual Simulation* sim() = 0;
};

// SocketApi over an AppProcess (the multiserver path).
class MultiserverSocket : public SocketApi {
 public:
  explicit MultiserverSocket(AppProcess* app) : app_(app) {
    AppProcess::Behavior b;
    b.on_event = [this](AppProcess&, const Msg& m) {
      if (handler_) {
        handler_(m);
      }
    };
    app_->set_behavior(std::move(b));
  }

  void SetEventHandler(std::function<void(const Msg&)> handler) override {
    handler_ = std::move(handler);
  }
  uint64_t Connect(Ipv4Addr dst, uint16_t port) override { return app_->Connect(dst, port); }
  void Listen(uint16_t port) override { app_->ListenTcp(port); }
  void Send(uint64_t handle, uint64_t bytes) override { app_->SendBytes(handle, bytes); }
  void Close(uint64_t handle) override { app_->Close(handle); }
  void Compute(Cycles cycles, std::function<void()> then) override {
    app_->Compute(cycles, std::move(then));
  }
  Simulation* sim() override { return app_->sim(); }

  AppProcess* app() { return app_; }

 private:
  AppProcess* app_;
  std::function<void(const Msg&)> handler_;
};

}  // namespace newtos

#endif  // SRC_OS_SOCKET_API_H_

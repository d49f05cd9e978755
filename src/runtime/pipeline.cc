#include "src/runtime/pipeline.h"

#include <memory>
#include <string>
#include <vector>

#include "src/runtime/clock.h"
#include "src/runtime/engine.h"
#include "src/runtime/thread_channel.h"

namespace newtos {
namespace {

// Tokens carry a sentinel-terminated stream; kStop flushes the pipeline.
constexpr uint64_t kStop = ~uint64_t{0};

using Ring = ThreadChannel<uint64_t>;

// Forwards tokens slot to slot until kStop has passed: a token leaves `in`
// only once `out` took it, so a full output leaves it where it lies.
void StageBody(ServerContext& ctx, Ring& in, Ring& out) {
  bool stopped = false;
  while (!stopped) {
    bool work = false;
    while (!stopped) {
      const uint64_t* front = in.Front();
      if (front == nullptr || !out.TryPush(*front)) {
        break;
      }
      stopped = *front == kStop;
      in.PopFront();
      work = true;
    }
    ctx.Idle(work, [&] { return !in.EmptyConsumer() && out.HasSpaceProducer(); });
  }
}

}  // namespace

PipelineResult RunPipeline(const PipelineParams& params) {
  const int interior = params.stages > 0 ? params.stages : 0;
  // Role i pushes into rings[i] and role i + 1 pops it: producer, the
  // interior stages, consumer.
  std::vector<std::unique_ptr<Ring>> rings;
  for (int i = 0; i <= interior; ++i) {
    rings.push_back(std::make_unique<Ring>("pipe/" + std::to_string(i), params.ring_capacity));
  }

  // Each field is written by one role and read only after Join().
  const RuntimeClock clock;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t sum = 0;
  uint64_t consumed = 0;

  RuntimeEngine engine;
  std::vector<ServerContext*> ctxs;
  auto cpu_for = [&](int role) { return params.pin_threads ? role : -1; };

  ctxs.push_back(&engine.Add("producer", cpu_for(0), [&](ServerContext& ctx) {
    Ring& out = *rings.front();
    start_ns = clock.NowNs();
    // Token number `messages` is the stop sentinel.
    for (uint64_t next = 0; next <= params.messages;) {
      const bool pushed = out.TryPush(next < params.messages ? next : kStop);
      next += pushed ? 1 : 0;
      ctx.Idle(pushed, [&] { return out.HasSpaceProducer(); });
    }
  }));

  for (size_t s = 1; s < rings.size(); ++s) {
    Ring& in = *rings[s - 1];
    Ring& out = *rings[s];
    ctxs.push_back(&engine.Add("stage" + std::to_string(s), cpu_for(static_cast<int>(s)),
                               [&in, &out](ServerContext& ctx) { StageBody(ctx, in, out); }));
  }

  ctxs.push_back(&engine.Add("consumer", cpu_for(interior + 1), [&](ServerContext& ctx) {
    Ring& in = *rings.back();
    bool stopped = false;
    while (!stopped) {
      bool work = false;
      while (!stopped) {
        const uint64_t* v = in.Front();
        if (v == nullptr) {
          break;
        }
        stopped = *v == kStop;
        if (!stopped) {
          sum += *v;
          ++consumed;
        }
        in.PopFront();
        work = true;
      }
      ctx.Idle(work, [&] { return !in.EmptyConsumer(); });
    }
    end_ns = clock.NowNs();
  }));

  // Doorbells: a push wakes the ring's consumer, a pop its producer.
  for (size_t i = 0; i < rings.size(); ++i) {
    rings[i]->BindProducerGate(&ctxs[i]->gate());
    rings[i]->BindConsumerGate(&ctxs[i + 1]->gate());
  }
  engine.Start();
  engine.Join();

  PipelineResult r;
  r.messages = consumed;
  r.seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  r.msgs_per_sec = r.seconds > 0.0 ? static_cast<double>(r.messages) / r.seconds : 0.0;
  r.checksum = sum;
  return r;
}

}  // namespace newtos

// Micro-benchmarks (google-benchmark) over the sharded event queue's
// scheduling hot path — the PR-7 perf trajectory at its smallest scale.
// Three traffic shapes, each swept over shard count x adaptive lookahead:
//
//  * ping-pong: two streams exchanging sequenced messages at exactly the
//    lookahead latency — the worst case for windowing (every window holds
//    one event per side) and the case adaptive horizons help least,
//  * fan-out: a hub stream broadcasting to many workers each round trip —
//    mailbox drain and cross-shard insert throughput,
//  * timer storm: independent self-rescheduling timers with no cross-
//    stream traffic at all — the best case for adaptive horizons, which
//    collapse the lockstep t_min+L windows into one window per shard
//    batch,
//  * deep heap: one shard holding ~10^5 pending events (a large client
//    crowd's worth) under pop/push churn with one cancel in four — the
//    heap-entry, slot-table and stale-entry cost of the single-shard loop,
//  * schedule-and-fire over capture sizes: 16 and 40 bytes fit a
//    callback's inline storage, 96 bytes falls back to the heap,
//  * link broadcast: one ARP-sized broadcast on a 2,000-port SharedLink —
//    the per-receiver delivery cost of a spoofed-source SYN flood, whose
//    deliveries all append to the shard's sorted run,
//  * ARP broadcast to clients: the same broadcast, an ARP request for an
//    address no one holds, delivered to 2,000 real ClientMachines — each
//    parses it, learns the sender and drops it, as every client does for
//    each spoofed source the server resolves,
//  * interleaved link traffic: unicast frames alternating between a server
//    port and client ports 120 us further away, each delivery followed by
//    a plain event — the mix in which about half the deliveries arrive
//    out of key order and fall back to the heap.
//
// Wall-clock events/sec here measure the simulator itself (host-machine
// dependent); the committed trajectory gate works on ratios instead —
// see tools/check_perf_regression.py and bench/snapshots/.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/workload/client_machine.h"
#include "src/workload/network.h"
#include "src/workload/wire.h"

namespace escort {
namespace {

constexpr Cycles kLookahead = 100;

// One simulated ping-pong match: `hops` sequenced round trips between two
// streams, each delivery landing exactly one lookahead later.
uint64_t RunPingPong(int shards, bool adaptive, int hops) {
  ShardedEventQueue eq(shards, kLookahead, adaptive);
  EventQueue::StreamId a = eq.NewStream(1);
  EventQueue::StreamId b = eq.NewStream(2);
  int remaining = hops;
  std::function<void(EventQueue::StreamId, EventQueue::StreamId)> volley =
      [&](EventQueue::StreamId from, EventQueue::StreamId to) {
        if (remaining-- <= 0) {
          return;
        }
        eq.PostSequenced([&eq, &volley, from, to](Cycles send_time) {
          eq.ScheduleAtFrom(to, send_time + kLookahead,
                            [&volley, from, to] { volley(to, from); });
        });
      };
  {
    EventQueue::StreamScope scope(&eq, a);
    eq.ScheduleAt(1, [&] { volley(a, b); });
  }
  eq.RunToCompletion();
  return eq.fired_count();
}

// One fan-out round: the hub posts a sequenced broadcast to every worker
// stream, each worker replies, and the hub re-arms until `rounds` is spent.
uint64_t RunFanOut(int shards, bool adaptive, int workers, int rounds) {
  ShardedEventQueue eq(shards, kLookahead, adaptive);
  EventQueue::StreamId hub = eq.NewStream(1);
  std::vector<EventQueue::StreamId> crew;
  crew.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    crew.push_back(eq.NewStream(1 + i % (shards > 1 ? shards - 1 : 1)));
  }
  int remaining = rounds;
  std::function<void()> broadcast = [&] {
    if (remaining-- <= 0) {
      return;
    }
    for (EventQueue::StreamId w : crew) {
      eq.PostSequenced([&eq, w](Cycles send_time) {
        eq.ScheduleAtFrom(w, send_time + kLookahead, [] {});
      });
    }
    eq.PostSequenced([&eq, &broadcast, hub](Cycles send_time) {
      eq.ScheduleAtFrom(hub, send_time + kLookahead, [&broadcast] { broadcast(); });
    });
  };
  {
    EventQueue::StreamScope scope(&eq, hub);
    eq.ScheduleAt(1, [&] { broadcast(); });
  }
  eq.RunToCompletion();
  return eq.fired_count();
}

// Independent periodic timers, no cross-stream traffic: pure per-shard
// work where a conservative scheduler still pays one barrier per t_min+L.
uint64_t RunTimerStorm(int shards, bool adaptive, int timers, Cycles horizon) {
  ShardedEventQueue eq(shards, kLookahead, adaptive);
  std::vector<std::function<void()>> ticks(static_cast<size_t>(timers));
  for (int i = 0; i < timers; ++i) {
    EventQueue::StreamId s = eq.NewStream(1 + i % (shards > 1 ? shards - 1 : 1));
    // Coprime-ish periods so shards stay out of phase.
    Cycles period = static_cast<Cycles>(37 + 13 * (i % 7));
    ticks[static_cast<size_t>(i)] = [&eq, i, period, &ticks, horizon] {
      Cycles next = eq.now() + period;
      if (next < horizon) {
        eq.ScheduleAt(next, [&ticks, i] { ticks[static_cast<size_t>(i)](); });
      }
    };
    EventQueue::StreamScope scope(&eq, s);
    eq.ScheduleAt(static_cast<Cycles>(1 + i), [&ticks, i] { ticks[static_cast<size_t>(i)](); });
  }
  eq.RunUntil(horizon);
  return eq.fired_count();
}

void BM_PingPong(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const bool adaptive = state.range(1) != 0;
  uint64_t events = 0;
  for (auto _ : state) {
    events += RunPingPong(shards, adaptive, 2000);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_PingPong)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"shards", "adaptive"});

void BM_FanOut(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const bool adaptive = state.range(1) != 0;
  uint64_t events = 0;
  for (auto _ : state) {
    events += RunFanOut(shards, adaptive, 16, 200);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_FanOut)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"shards", "adaptive"});

void BM_TimerStorm(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const bool adaptive = state.range(1) != 0;
  uint64_t events = 0;
  for (auto _ : state) {
    events += RunTimerStorm(shards, adaptive, 16, 200000);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_TimerStorm)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"shards", "adaptive"});

// ~10^5 pending events on one shard. Every firing pushes its successor at
// a pseudo-random delay, so the heap stays at full depth; every fourth
// push also schedules a decoy and cancels it, leaving a stale heap entry
// behind and a freed slot for the next push.
class DeepHeap {
 public:
  static constexpr int kPending = 100000;
  static constexpr Cycles kMeanDelay = Cycles{1} << 20;

  explicit DeepHeap(int shards) : eq_(shards, kLookahead) {
    for (int i = 0; i < kPending; ++i) {
      Push();
    }
  }

  // Runs about `events` firings; returns how many fired.
  uint64_t Run(uint64_t events) {
    uint64_t before = eq_.fired_count();
    eq_.RunUntil(eq_.now() + events * kMeanDelay / kPending);
    return eq_.fired_count() - before;
  }

 private:
  Cycles NextDelay() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return 1 + rng_ % (2 * kMeanDelay);
  }

  void Push() {
    if (++pushes_ % 4 == 0) {
      eq_.Cancel(eq_.ScheduleAfter(NextDelay(), [this] { Push(); }));
    }
    eq_.ScheduleAfter(NextDelay(), [this] { Push(); });
  }

  ShardedEventQueue eq_;
  uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  uint64_t pushes_ = 0;
};

void BM_DeepHeap(benchmark::State& state) {
  DeepHeap heap(static_cast<int>(state.range(0)));
  uint64_t events = 0;
  for (auto _ : state) {
    events += heap.Run(10000);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_DeepHeap)->Arg(1)->ArgNames({"shards"});

// Schedules `batch` events whose callbacks capture `Bytes` bytes (a
// pointer plus padding) and fires them all; one iteration = one batch.
template <size_t Bytes>
void ScheduleAndFire(benchmark::State& state) {
  constexpr int kBatch = 4096;
  ShardedEventQueue eq(1, kLookahead);
  uint64_t sink = 0;
  std::array<char, Bytes - sizeof(uint64_t*)> pad{};
  pad[0] = static_cast<char>(state.range(1));
  uint64_t events = 0;
  for (auto _ : state) {
    const Cycles base = eq.now();
    for (int i = 0; i < kBatch; ++i) {
      eq.ScheduleAt(base + 1 + static_cast<Cycles>(i % 64),
                    [&sink, pad] { sink += static_cast<uint64_t>(pad[0]); });
    }
    eq.RunUntil(base + 64);
    events += kBatch;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(events));
}

void BM_ScheduleFire(benchmark::State& state) {
  switch (state.range(0)) {
    case 16:
      ScheduleAndFire<16>(state);
      break;
    case 40:
      ScheduleAndFire<40>(state);
      break;
    default:
      ScheduleAndFire<96>(state);
      break;
  }
}
BENCHMARK(BM_ScheduleFire)
    ->Args({16, 1})
    ->Args({40, 1})
    ->Args({96, 1})
    ->ArgNames({"capture", "shards"});

class CountingEndpoint : public NetEndpoint {
 public:
  void DeliverFrame(const std::vector<uint8_t>& frame) override { bytes += frame.size(); }
  uint64_t bytes = 0;
};

// One iteration = one 60-byte broadcast delivered to every other port.
void BM_LinkBroadcast(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  const NetworkModel model = NetworkModel::Calibrated();
  ShardedEventQueue eq(1, SharedLink::MinDeliveryLatency(model));
  SharedLink link(&eq, model);
  std::vector<std::unique_ptr<CountingEndpoint>> endpoints;
  for (int i = 0; i < ports; ++i) {
    endpoints.push_back(std::make_unique<CountingEndpoint>());
    link.Attach(MacAddr::FromIndex(static_cast<uint64_t>(i) + 1), endpoints.back().get());
  }
  std::vector<uint8_t> frame(60, 0);
  std::copy_n(MacAddr::Broadcast().bytes.begin(), 6, frame.begin());
  const MacAddr sender = MacAddr::FromIndex(1);
  uint64_t deliveries = 0;
  for (auto _ : state) {
    const uint64_t before = eq.fired_count();
    link.Send(sender, frame);
    eq.RunUntil(eq.now() + CyclesFromMillis(1));
    deliveries += eq.fired_count() - before;
  }
  benchmark::DoNotOptimize(endpoints.back()->bytes);
  state.SetItemsProcessed(static_cast<int64_t>(deliveries));
}
BENCHMARK(BM_LinkBroadcast)->Args({2000, 1})->ArgNames({"ports", "shards"});

// One iteration = one ARP request broadcast to every client machine.
void BM_ArpBroadcastToClients(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  const NetworkModel model = NetworkModel::Calibrated();
  ShardedEventQueue eq(static_cast<int>(state.range(1)), SharedLink::MinDeliveryLatency(model));
  SharedLink link(&eq, model);
  std::vector<std::unique_ptr<ClientMachine>> clients;
  for (int i = 0; i < ports; ++i) {
    const uint32_t n = static_cast<uint32_t>(i) + 1;
    clients.push_back(std::make_unique<ClientMachine>(
        &eq, &link, MacAddr::FromIndex(n),
        Ip4Addr::FromOctets(10, 1, static_cast<uint8_t>(n >> 8), static_cast<uint8_t>(n)), model,
        n));
  }
  const MacAddr server_mac = MacAddr::FromIndex(100000);
  ArpPacket request;
  request.opcode = 1;
  request.sender_mac = server_mac;
  request.sender_ip = Ip4Addr::FromOctets(10, 0, 0, 1);
  request.target_ip = Ip4Addr::FromOctets(192, 168, 7, 7);  // a spoofed source
  const std::vector<uint8_t> frame = BuildArpFrame(server_mac, MacAddr::Broadcast(), request);
  uint64_t deliveries = 0;
  for (auto _ : state) {
    const uint64_t before = eq.fired_count();
    link.Send(server_mac, frame);
    eq.RunUntil(eq.now() + CyclesFromMillis(1));
    deliveries += eq.fired_count() - before;
  }
  benchmark::DoNotOptimize(clients.back()->frames_received());
  state.SetItemsProcessed(static_cast<int64_t>(deliveries));
}
BENCHMARK(BM_ArpBroadcastToClients)->Args({2000, 1})->ArgNames({"ports", "shards"});

// Receives a frame and schedules one plain follow-up event (the protocol
// work a delivery triggers) a pseudo-random 0-63 us later.
class FollowUpEndpoint : public NetEndpoint {
 public:
  explicit FollowUpEndpoint(EventQueue* eq) : eq_(eq) {}
  void DeliverFrame(const std::vector<uint8_t>& frame) override {
    (void)frame;
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    eq_->ScheduleAfter(CyclesFromMicros(static_cast<double>(rng_ % 64)),
                       [this] { ++follow_ups_; });
  }
  uint64_t follow_ups() const { return follow_ups_; }

 private:
  EventQueue* eq_;
  uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  uint64_t follow_ups_ = 0;
};

// One iteration = 1,000 unicast frames sent two wire times apart,
// alternating between the server port and 16 client ports.
void BM_InterleavedLinkTraffic(benchmark::State& state) {
  constexpr int kFrames = 1000;
  constexpr int kClients = 16;
  const NetworkModel model = NetworkModel::Calibrated();
  const Cycles gap = 2 * SharedLink::MinDeliveryLatency(model);
  ShardedEventQueue eq(static_cast<int>(state.range(0)), SharedLink::MinDeliveryLatency(model));
  SharedLink link(&eq, model);
  std::vector<std::unique_ptr<FollowUpEndpoint>> ports;
  std::vector<std::vector<uint8_t>> frames;
  for (int i = 0; i <= kClients; ++i) {
    const MacAddr mac = MacAddr::FromIndex(static_cast<uint64_t>(i) + 1);
    ports.push_back(std::make_unique<FollowUpEndpoint>(&eq));
    link.Attach(mac, ports.back().get(), i == 0 ? 0 : model.client_link_latency);
    frames.emplace_back(60, 0);
    std::copy_n(mac.bytes.begin(), 6, frames.back().begin());
  }
  const MacAddr sender = MacAddr::FromIndex(1000);
  uint64_t events = 0;
  for (auto _ : state) {
    const uint64_t before = eq.fired_count();
    const Cycles base = eq.now();
    for (int i = 0; i < kFrames; ++i) {
      const size_t port = i % 2 == 0 ? 0 : 1 + static_cast<size_t>(i / 2) % kClients;
      eq.ScheduleAt(base + 1 + static_cast<Cycles>(i) * gap,
                    [&link, &frames, sender, port] { link.Send(sender, frames[port]); });
    }
    eq.RunUntil(base + kFrames * gap + CyclesFromMillis(1));
    events += eq.fired_count() - before;
  }
  benchmark::DoNotOptimize(ports.back()->follow_ups());
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_InterleavedLinkTraffic)->Arg(1)->ArgNames({"shards"});

}  // namespace
}  // namespace escort

BENCHMARK_MAIN();

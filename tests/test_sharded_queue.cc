// Unit semantics of ShardedEventQueue: the stream-keyed total order
// (when, stream, seq, minor), conservative windows, sequenced cross-shard
// transactions, and — the headline property — that a scripted workload
// produces the identical trace at every shard count. The full-system
// version of that property is tests/test_sharded_equivalence.cc; this file
// pins the queue mechanics in isolation.

#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/workload/network.h"

namespace escort {
namespace {

TEST(ShardedQueue, ShardCountIsClampedAndStreamsRoundRobin) {
  ShardedEventQueue eq(4, 100);
  EXPECT_EQ(eq.shard_count(), 4);
  EXPECT_EQ(eq.lookahead(), 100u);
  // Stream 0 pre-exists on shard 0.
  EXPECT_EQ(eq.shard_of(0), 0);
  EXPECT_EQ(eq.NewStream(1), 1u);
  EXPECT_EQ(eq.NewStream(2), 2u);
  EXPECT_EQ(eq.NewStream(5), 3u);  // home shard taken modulo shard count
  EXPECT_EQ(eq.shard_of(1), 1);
  EXPECT_EQ(eq.shard_of(2), 2);
  EXPECT_EQ(eq.shard_of(3), 1);

  ShardedEventQueue clamped_low(0);
  EXPECT_EQ(clamped_low.shard_count(), 1);
  ShardedEventQueue clamped_high(1000);
  EXPECT_EQ(clamped_high.shard_count(), 64);
}

TEST(ShardedQueue, BehavesLikeSerialQueueAtOneShard) {
  ShardedEventQueue eq(1, 50);
  std::vector<int> order;
  eq.ScheduleAt(300, [&] { order.push_back(3); });
  eq.ScheduleAt(100, [&] { order.push_back(1); });
  eq.ScheduleAt(200, [&] { order.push_back(2); });
  eq.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.fired_count(), 3u);
  EXPECT_TRUE(eq.empty());
}

// Equal-time events are ordered by (stream, seq): a lower stream id wins
// regardless of scheduling order. This is the key-order contract that
// makes the total order independent of shard count.
TEST(ShardedQueue, EqualTimesOrderByStreamThenSeq) {
  ShardedEventQueue eq(1, 50);  // one shard: execution order == key order
  EventQueue::StreamId s1 = eq.NewStream(0);
  std::vector<int> order;
  {
    EventQueue::StreamScope scope(&eq, s1);
    eq.ScheduleAt(10, [&] { order.push_back(10); });  // stream 1, seq 0
    eq.ScheduleAt(10, [&] { order.push_back(11); });  // stream 1, seq 1
  }
  eq.ScheduleAt(10, [&] { order.push_back(0); });  // stream 0, scheduled later
  eq.RunUntil(10);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11}));
}

TEST(ShardedQueue, CurrentStreamFollowsScopeAndExecution) {
  ShardedEventQueue eq(2, 50);
  EventQueue::StreamId s1 = eq.NewStream(1);
  EXPECT_EQ(eq.current_stream(), 0u);
  EventQueue::StreamId seen = 999;
  {
    EventQueue::StreamScope scope(&eq, s1);
    EXPECT_EQ(eq.current_stream(), s1);
    eq.ScheduleAt(5, [&] { seen = eq.current_stream(); });
  }
  EXPECT_EQ(eq.current_stream(), 0u);
  eq.RunUntil(5);
  EXPECT_EQ(seen, s1);  // the event executed in its scheduling stream
}

TEST(ShardedQueue, CancelWorksAcrossShards) {
  ShardedEventQueue eq(4, 50);
  EventQueue::StreamId s1 = eq.NewStream(1);
  EventQueue::StreamId s2 = eq.NewStream(2);
  bool fired = false;
  EventQueue::EventId a;
  EventQueue::EventId b;
  {
    EventQueue::StreamScope scope(&eq, s1);
    a = eq.ScheduleAt(10, [&] { fired = true; });
  }
  {
    EventQueue::StreamScope scope(&eq, s2);
    b = eq.ScheduleAt(20, [] {});
  }
  EXPECT_NE(a, b);  // ids encode the home shard: distinct across shards
  EXPECT_EQ(eq.pending(), 2u);
  EXPECT_TRUE(eq.Cancel(a));
  EXPECT_FALSE(eq.Cancel(a));  // double cancel fails
  EXPECT_EQ(eq.pending(), 1u);
  eq.RunToCompletion();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(eq.Cancel(b));  // fired, no longer cancellable
  EXPECT_EQ(eq.fired_count(), 1u);
}

// Event ids carry the slot's generation: a slot freed by firing or
// cancelling is reused by the next event on its shard, and the old id
// stays dead. Each case runs on a stream homed on the last shard.
class ShardedQueueGenerations : public ::testing::TestWithParam<int> {
 protected:
  ShardedQueueGenerations() : eq_(GetParam(), 50), stream_(eq_.NewStream(GetParam() - 1)) {}
  EventQueue::EventId ScheduleOnStream(Cycles when, EventQueue::Callback fn) {
    EventQueue::StreamScope scope(&eq_, stream_);
    return eq_.ScheduleAt(when, std::move(fn));
  }

  ShardedEventQueue eq_;
  EventQueue::StreamId stream_;
};

TEST_P(ShardedQueueGenerations, FiredIdStaysDeadAfterItsSlotIsReused) {
  EventQueue::EventId first = ScheduleOnStream(10, [] {});
  eq_.RunUntil(10);
  int fired = 0;
  EventQueue::EventId second = ScheduleOnStream(20, [&fired] { ++fired; });
  EXPECT_EQ(eq_.consumed_slot_count(), 1u);  // the fired event's slot was reused
  EXPECT_NE(first, second);
  EXPECT_FALSE(eq_.Cancel(first));
  EXPECT_EQ(eq_.pending(), 1u);
  eq_.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(eq_.Cancel(second));
}

TEST_P(ShardedQueueGenerations, DoubleCancelFails) {
  EventQueue::EventId id = ScheduleOnStream(10, [] {});
  EXPECT_TRUE(eq_.Cancel(id));
  EXPECT_FALSE(eq_.Cancel(id));
  // Reusing the slot does not revive the cancelled id.
  EventQueue::EventId reuse = ScheduleOnStream(30, [] {});
  EXPECT_FALSE(eq_.Cancel(id));
  EXPECT_TRUE(eq_.Cancel(reuse));
  EXPECT_TRUE(eq_.empty());
}

TEST_P(ShardedQueueGenerations, CancelledCallbackNeverRuns) {
  std::vector<Cycles> fired_at;
  // The cancelled event's heap entry (t=10) outlives the cancel, and its
  // slot is reused by an event at t=50. The stale entry must be skipped,
  // not mistaken for the slot's new occupant.
  EventQueue::EventId doomed = ScheduleOnStream(10, [&] { fired_at.push_back(10); });
  EXPECT_TRUE(eq_.Cancel(doomed));
  ScheduleOnStream(50, [&] { fired_at.push_back(eq_.now()); });
  eq_.RunUntil(100);
  EXPECT_EQ(fired_at, (std::vector<Cycles>{50}));
  EXPECT_EQ(eq_.fired_count(), 1u);
}

// Port of EventQueue.ConsumedBookkeepingIsCompacted: a long schedule/
// cancel/fire churn keeps the slot table bounded by outstanding events.
TEST_P(ShardedQueueGenerations, SlotTableIsBoundedByOutstandingEvents) {
  constexpr int kRounds = 100000;
  for (int i = 0; i < kRounds; ++i) {
    EventQueue::StreamScope scope(&eq_, stream_);
    eq_.ScheduleAfter(1, [] {});
    EventQueue::EventId cancelled = eq_.ScheduleAfter(2, [] {});
    EXPECT_TRUE(eq_.Cancel(cancelled));
    eq_.Step();
  }
  EXPECT_EQ(eq_.fired_count(), static_cast<uint64_t>(kRounds));
  EXPECT_LT(eq_.consumed_slot_count(), 16u);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedQueueGenerations, ::testing::Values(1, 4));

TEST(ShardedQueue, PeekAndStepSeeTheGlobalMinimum) {
  ShardedEventQueue eq(4, 50);
  EventQueue::StreamId s1 = eq.NewStream(1);
  EventQueue::StreamId s2 = eq.NewStream(2);
  std::vector<int> order;
  {
    EventQueue::StreamScope scope(&eq, s1);
    eq.ScheduleAt(30, [&] { order.push_back(30); });
  }
  {
    EventQueue::StreamScope scope(&eq, s2);
    eq.ScheduleAt(20, [&] { order.push_back(20); });
  }
  Cycles when = 0;
  ASSERT_TRUE(eq.PeekNext(&when));
  EXPECT_EQ(when, 20u);  // minimum across shards
  EXPECT_TRUE(eq.Step());
  EXPECT_EQ(order, (std::vector<int>{20}));
  EXPECT_EQ(eq.now(), 20u);
  EXPECT_TRUE(eq.Step());
  EXPECT_EQ(order, (std::vector<int>{20, 30}));
  EXPECT_FALSE(eq.Step());
}

TEST(ShardedQueue, RunUntilAdvancesTimeEvenWhenIdle) {
  ShardedEventQueue eq(4, 50);
  eq.RunUntil(12345);
  EXPECT_EQ(eq.now(), 12345u);
  // Main-context scheduling clamps to the committed floor.
  bool fired = false;
  eq.ScheduleAt(10, [&] { fired = true; });
  Cycles when = 0;
  ASSERT_TRUE(eq.PeekNext(&when));
  EXPECT_EQ(when, 12345u);
  eq.RunToCompletion();
  EXPECT_TRUE(fired);
}

TEST(ShardedQueue, NowRefTracksStreamZeroClock) {
  ShardedEventQueue eq(2, 50);
  const Cycles& clock = eq.now_ref();
  EXPECT_EQ(clock, 0u);
  eq.ScheduleAt(40, [] {});
  eq.RunUntil(100);
  EXPECT_EQ(clock, 100u);
}

TEST(ShardedQueue, WindowsRunInParallelWhenMultipleShardsHaveWork) {
  ShardedEventQueue eq(4, 1000);
  std::vector<int> counts(4, 0);
  for (int s = 1; s <= 3; ++s) {
    EventQueue::StreamId stream = eq.NewStream(s);
    EventQueue::StreamScope scope(&eq, stream);
    for (int i = 0; i < 5; ++i) {
      // Each stream records only into its own slot: no cross-shard state.
      eq.ScheduleAt(static_cast<Cycles>(10 + i), [&counts, s] { ++counts[static_cast<size_t>(s)]; });
    }
  }
  eq.RunUntil(2000);
  EXPECT_EQ(counts, (std::vector<int>{0, 5, 5, 5}));
  EXPECT_GE(eq.windows_run(), 1u);
  EXPECT_GE(eq.parallel_windows(), 1u);  // three shards shared one window
  EXPECT_EQ(eq.fired_count(), 15u);
}

// Sequenced transactions are the cross-shard channel: posted inside a
// parallel window they are deposited and drained at the boundary, in
// (when, stream, seq) order — the same order the bodies run inline in a
// serial execution — with the posting time passed as send_time.
TEST(ShardedQueue, SequencedTransactionsDrainInKeyOrder) {
  ShardedEventQueue eq(4, 1000);
  EventQueue::StreamId s1 = eq.NewStream(1);
  EventQueue::StreamId s2 = eq.NewStream(2);
  std::vector<std::pair<uint32_t, Cycles>> txns;  // (posting stream, send_time)
  auto post = [&eq, &txns](EventQueue::StreamId stream) {
    eq.PostSequenced([&txns, stream](Cycles send_time) {
      txns.push_back({stream, send_time});
    });
  };
  {
    // Schedule in "wrong" stream order; both events land in one window.
    EventQueue::StreamScope scope(&eq, s2);
    eq.ScheduleAt(10, [&post, s2] { post(s2); });
  }
  {
    EventQueue::StreamScope scope(&eq, s1);
    eq.ScheduleAt(10, [&post, s1] { post(s1); });
  }
  eq.RunUntil(2000);
  ASSERT_EQ(txns.size(), 2u);
  EXPECT_EQ(txns[0], (std::pair<uint32_t, Cycles>{s1, 10}));  // stream order, not post order
  EXPECT_EQ(txns[1], (std::pair<uint32_t, Cycles>{s2, 10}));
}

// The drain order is the key order, not the post order, and the two can
// differ inside one window. Streams are created A, C, B. A's transaction at
// t=10 delivers to B at t=110 with key (110, A, ...); that delivery posts
// a body "B" keyed (110, B). C posts a body "C" keyed (110, C) from its own
// event at t=110, which runs after the delivery (stream C > stream A).
// RunUntil deposits both and drains them in key order (C < B): "CB".
// Step and RunToCompletion run each body inline as it is posted: "BC".
std::string RunTransactionOrderScript(int shards, bool step_driven) {
  ShardedEventQueue eq(shards, /*lookahead=*/50);
  EventQueue::StreamId a = eq.NewStream(1);
  EventQueue::StreamId c = eq.NewStream(2);
  EventQueue::StreamId b = eq.NewStream(3);
  std::string order;
  {
    EventQueue::StreamScope scope(&eq, a);
    eq.ScheduleAt(10, [&eq, &order, b] {
      eq.PostSequenced([&eq, &order, b](Cycles send_time) {
        eq.ScheduleAtFrom(b, send_time + 100, [&eq, &order] {
          eq.PostSequenced([&order](Cycles) { order += "B"; });
        });
      });
    });
  }
  {
    EventQueue::StreamScope scope(&eq, c);
    eq.ScheduleAt(110, [&eq, &order] { eq.PostSequenced([&order](Cycles) { order += "C"; }); });
  }
  if (step_driven) {
    eq.RunToCompletion();
  } else {
    eq.RunUntil(1000);
  }
  return order;
}

TEST(ShardedQueue, TransactionDrainFollowsKeyOrderNotPostOrder) {
  for (int shards : {1, 2}) {
    EXPECT_EQ(RunTransactionOrderScript(shards, /*step_driven=*/false), "CB")
        << "shards=" << shards;
    EXPECT_EQ(RunTransactionOrderScript(shards, /*step_driven=*/true), "BC")
        << "shards=" << shards;
  }
}

// A one-shard queue runs RunUntil as a direct loop; a two-shard queue
// whose streams all live on shard 0 runs the windowed scheduler over the
// same windows. Both must fire the same events in the same order and
// count the same windows, cycles and drains. Every transaction body keeps
// the queue's contract: what it schedules lands at least one lookahead
// after its post time (SharedLink::MinDeliveryLatency), so body A's
// armed-and-cancelled event sits at send_time + 50. Under that contract a
// conservative window releases every transaction it deposited, so no
// transaction is held and every window fires at least one event.
TEST(ShardedQueue, SingleShardLoopMatchesWindowedScheduler) {
  struct Run {
    std::vector<int> order;
    ShardProfile profile;
  };
  auto run = [](int shards) {
    ShardedEventQueue eq(shards, /*lookahead=*/50);
    EventQueue::StreamId s1 = eq.NewStream(0);
    EventQueue::StreamId s2 = eq.NewStream(0);
    Run r;
    {
      EventQueue::StreamScope scope(&eq, s1);
      eq.ScheduleAt(10, [&] {
        eq.PostSequenced([&](Cycles send_time) {
          r.order.push_back(1);
          eq.Cancel(eq.ScheduleAt(send_time + 50, [&] { r.order.push_back(-1); }));
        });
      });
      eq.ScheduleAt(20, [&] {
        eq.PostSequenced([&, s2](Cycles send_time) {
          r.order.push_back(2);
          eq.ScheduleAtFrom(s2, send_time + 50, [&] { r.order.push_back(3); });
        });
      });
      eq.ScheduleAt(500, [&] { r.order.push_back(4); });
      for (Cycles t = 600; t < 900; t += 7) {
        eq.ScheduleAt(t, [&] { eq.PostSequenced([&](Cycles) { r.order.push_back(5); }); });
      }
    }
    eq.RunUntil(1000);
    r.profile = eq.Profile();
    return r;
  };
  Run serial = run(1);
  Run windowed = run(2);
  EXPECT_EQ(serial.order, windowed.order);
  ASSERT_GE(serial.order.size(), 4u);
  EXPECT_EQ((std::vector<int>(serial.order.begin(), serial.order.begin() + 4)),
            (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(serial.profile.windows_run, windowed.profile.windows_run);
  EXPECT_EQ(serial.profile.window_cycles, windowed.profile.window_cycles);
  EXPECT_EQ(serial.profile.txns_drained, windowed.profile.txns_drained);
  EXPECT_EQ(serial.profile.max_mailbox_depth, windowed.profile.max_mailbox_depth);
  EXPECT_EQ(serial.profile.per_shard[0].events_fired, windowed.profile.per_shard[0].events_fired);
  EXPECT_EQ(serial.profile.per_shard[0].windows_woken,
            windowed.profile.per_shard[0].windows_woken);
  EXPECT_EQ(serial.profile.per_shard[0].windows_active,
            windowed.profile.per_shard[0].windows_active);
  // No transaction is held back, so no window closes before it opens.
  EXPECT_EQ(serial.profile.windows_run, serial.profile.per_shard[0].windows_woken);
}

// Children of one sequenced transaction inherit its (stream, seq) and are
// ordered by minor index: deliveries fire in the order they were scheduled
// inside the body, even at equal times.
TEST(ShardedQueue, SequencedChildrenFireInMinorOrder) {
  ShardedEventQueue eq(2, 1000);
  EventQueue::StreamId s1 = eq.NewStream(1);
  std::vector<int> order;
  {
    EventQueue::StreamScope scope(&eq, s1);
    eq.ScheduleAt(10, [&] {
      eq.PostSequenced([&](Cycles send_time) {
        eq.ScheduleAt(send_time + 100, [&] { order.push_back(1); });
        eq.ScheduleAt(send_time + 100, [&] { order.push_back(2); });
        eq.ScheduleAt(send_time + 100, [&] { order.push_back(3); });
      });
    });
  }
  eq.RunUntil(2000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// The headline unit property: an identical scripted workload — ticking
// streams that reschedule themselves and post cross-stream transactions —
// produces the identical per-stream traces, transaction order, and final
// counters at every shard count.
struct ScriptTrace {
  std::vector<std::vector<int>> per_stream;
  std::vector<int> txn_order;
  uint64_t fired = 0;
  Cycles final_now = 0;
  // Scheduling effort, NOT part of the identity comparison: adaptive
  // lookahead runs fewer windows by design while producing the same trace.
  uint64_t windows = 0;

  bool operator==(const ScriptTrace& o) const {
    return per_stream == o.per_stream && txn_order == o.txn_order && fired == o.fired &&
           final_now == o.final_now;
  }
};

ScriptTrace RunScript(int shards, bool adaptive = false) {
  ShardedEventQueue eq(shards, /*lookahead=*/50, adaptive);
  constexpr int kStreams = 4;
  ScriptTrace tr;
  tr.per_stream.resize(kStreams);
  // Owns the self-rescheduling tick functions for the duration of the run;
  // the closures capture a raw pointer (a shared_ptr self-capture would be
  // a reference cycle and leak).
  std::vector<std::unique_ptr<std::function<void(int)>>> ticks;
  for (int i = 0; i < kStreams; ++i) {
    EventQueue::StreamId stream = eq.NewStream(1 + i);
    EventQueue::StreamScope scope(&eq, stream);
    ticks.push_back(std::make_unique<std::function<void(int)>>());
    std::function<void(int)>* tick = ticks.back().get();
    *tick = [&eq, &tr, i, tick](int n) {
      // Per-stream state only: each event touches its own trace vector.
      tr.per_stream[static_cast<size_t>(i)].push_back(n);
      if (n % 3 == 0) {
        // A cross-stream transaction (the shared-medium pattern). Bodies
        // run serially at window boundaries; appending to the global
        // trace is safe and its order is part of the determinism contract.
        eq.PostSequenced([&tr, i, n](Cycles) { tr.txn_order.push_back(i * 100 + n); });
      }
      if (n < 9) {
        eq.ScheduleAfter(static_cast<Cycles>(7 + i), [tick, n] { (*tick)(n + 1); });
      }
    };
    eq.ScheduleAt(static_cast<Cycles>(5 + i), [tick] { (*tick)(0); });
  }
  eq.RunUntil(500);
  tr.fired = eq.fired_count();
  tr.final_now = eq.now();
  tr.windows = eq.windows_run();
  return tr;
}

TEST(ShardedQueue, ScriptedWorkloadIsIdenticalAtEveryShardCount) {
  ScriptTrace base = RunScript(1);
  ASSERT_EQ(base.fired, 40u);  // 4 streams x 10 ticks
  ASSERT_EQ(base.txn_order.size(), 16u);
  for (int shards : {2, 3, 4, 8}) {
    ScriptTrace t = RunScript(shards);
    EXPECT_TRUE(t == base) << "shards=" << shards;
  }
}

// Adaptive lookahead: the identical trace (per-stream orders, transaction
// order, final clock) with strictly fewer scheduling windows — per-shard
// horizons let a shard run past t_min + L when no other shard can touch it.
TEST(ShardedQueue, AdaptiveLookaheadIsIdenticalWithFewerWindows) {
  ScriptTrace base = RunScript(1);
  for (int shards : {1, 2, 3, 4, 8}) {
    ScriptTrace conservative = RunScript(shards, /*adaptive=*/false);
    ScriptTrace adaptive = RunScript(shards, /*adaptive=*/true);
    EXPECT_TRUE(adaptive == base) << "shards=" << shards;
    EXPECT_LE(adaptive.windows, conservative.windows) << "shards=" << shards;
  }
}

// Where the collapse is strict: shards whose work is separated in time.
// A conservative scheduler grinds through a busy shard in t_min+L steps
// even though the only other shard cannot interact until much later; the
// adaptive horizon lets the busy shard run its whole phase in one window.
TEST(ShardedQueue, AdaptiveHorizonsCollapsePhaseSeparatedWindows) {
  auto run = [](bool adaptive) {
    ShardedEventQueue eq(4, /*lookahead=*/50, adaptive);
    EventQueue::StreamId early = eq.NewStream(1);
    EventQueue::StreamId late = eq.NewStream(2);
    int fired = 0;
    std::function<void()> tick = [&] {
      ++fired;
      if (eq.now() < 400) {
        eq.ScheduleAfter(7, [&tick] { tick(); });
      }
    };
    {
      EventQueue::StreamScope scope(&eq, early);
      eq.ScheduleAt(1, [&tick] { tick(); });
    }
    {
      EventQueue::StreamScope scope(&eq, late);
      eq.ScheduleAt(10000, [&fired] { fired += 1000; });
    }
    eq.RunUntil(20000);
    EXPECT_EQ(fired, 1058);  // 58 early ticks + the late event, any mode
    return eq.windows_run();
  };
  uint64_t conservative = run(false);
  uint64_t adaptive = run(true);
  // Conservative: one window per t_min+L step across the early phase.
  EXPECT_GE(conservative, 8u);
  // Adaptive: one window for the whole early phase, one for the late event.
  EXPECT_EQ(adaptive, 2u);
}

// The horizon computation itself, pinned as a pure function.
TEST(ShardedQueue, ComputeHorizonsConservativeIsUniformTMinPlusLookahead) {
  const Cycles kNone = ShardedEventQueue::kNoEvent;
  std::vector<Cycles> horizons;
  ShardedEventQueue::ComputeHorizons({100, 130, kNone}, 50, 1000, false, &horizons);
  EXPECT_EQ(horizons, (std::vector<Cycles>{150, 150, 150}));
  // The horizon is exclusive (events with when < H run), so it may reach
  // deadline + 1 but no further.
  ShardedEventQueue::ComputeHorizons({100, 130, kNone}, 50, 120, false, &horizons);
  EXPECT_EQ(horizons, (std::vector<Cycles>{121, 121, 121}));
}

TEST(ShardedQueue, ComputeHorizonsAdaptiveBoundsEachShardByTheOthers) {
  const Cycles kNone = ShardedEventQueue::kNoEvent;
  std::vector<Cycles> horizons;
  // Shard 0 is bounded by shard 1's earliest (130 + 50), shard 1 by shard
  // 0's (100 + 50); the empty shard never constrains anyone.
  ShardedEventQueue::ComputeHorizons({100, 130, kNone}, 50, 1000, true, &horizons);
  ASSERT_EQ(horizons.size(), 3u);
  EXPECT_EQ(horizons[0], 180u);
  EXPECT_EQ(horizons[1], 150u);
  // A shard alone with work runs straight to the deadline: no other shard
  // can reach it, so its horizon is the cap, not t_min + L.
  ShardedEventQueue::ComputeHorizons({200, kNone}, 50, 1000, true, &horizons);
  EXPECT_EQ(horizons[0], 1001u);
  // All empty: no window to bound.
  ShardedEventQueue::ComputeHorizons({kNone, kNone}, 50, 1000, true, &horizons);
  EXPECT_EQ(horizons, (std::vector<Cycles>{0, 0}));
}

// ---- The sorted run lane ----------------------------------------------------
//
// Children of a sequenced transaction that arrive in key order append to
// their shard's sorted run instead of its heap. The run must leave the fire
// order alone. The harness drives plain events, wheel timers and sequenced
// fan-outs (in key order, in two latency classes that interleave out of
// order, and in random order), cancels children at the front and in the
// middle of a fan-out, computes every event's key the way the queue assigns
// it, and checks the fire order against those keys sorted.

using RunKey = std::tuple<Cycles, uint32_t, uint64_t, uint32_t>;  // (when, stream, seq, minor)

class FanOutHarness {
 public:
  static constexpr Cycles kLookahead = 50;
  static constexpr int kStreams = 6;
  static constexpr Cycles kStop = 20000;  // no new work is started after this

  FanOutHarness(int shards, bool step_driven)
      : eq_(shards, kLookahead), single_threaded_(shards == 1 || step_driven) {
    state_.resize(kStreams + 1);  // indexed by StreamId; stream 0 stays idle
    for (int i = 1; i <= kStreams; ++i) {
      EventQueue::StreamId id = eq_.NewStream(i);
      state_[id].rng.seed(static_cast<uint64_t>(977 * i));
      EventQueue::StreamScope scope(&eq_, id);
      Tick(id, static_cast<Cycles>(i));
    }
    if (step_driven) {
      eq_.RunToCompletion();
    } else {
      eq_.RunUntil(2 * kStop);
    }
  }

  // Fired keys of events that executed in `stream`'s context, in order.
  const std::vector<RunKey>& fired(EventQueue::StreamId stream) const {
    return state_[stream].fired;
  }
  // Every key scheduled to execute in `stream`'s context and not cancelled,
  // sorted: the reference fire order.
  std::vector<RunKey> expected(EventQueue::StreamId stream) const {
    const StreamState& st = state_[stream];
    std::vector<RunKey> keys;
    for (const RunKey& k : st.scheduled) {
      if (std::find(st.cancelled.begin(), st.cancelled.end(), k) == st.cancelled.end()) {
        keys.push_back(k);
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }
  // Global fire order (single-threaded runs only).
  const std::vector<RunKey>& global() const { return global_; }
  std::vector<RunKey> expected_global() const {
    std::vector<RunKey> keys;
    for (size_t s = 1; s < state_.size(); ++s) {
      std::vector<RunKey> e = expected(static_cast<EventQueue::StreamId>(s));
      keys.insert(keys.end(), e.begin(), e.end());
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }
  bool single_threaded() const { return single_threaded_; }
  uint64_t fanouts() const { return fanouts_; }
  uint64_t run_cancels() const { return run_cancels_; }
  ShardedEventQueue& eq() { return eq_; }

 private:
  // Per-stream state. Touched only by events running in the stream's
  // context, or at serial points (transaction bodies).
  struct StreamState {
    std::mt19937_64 rng;
    uint64_t next_seq = 0;  // mirror of the queue's per-stream counter
    std::vector<RunKey> scheduled;
    std::vector<RunKey> cancelled;
    std::vector<RunKey> fired;
    std::deque<std::pair<EventQueue::TimerId, RunKey>> timers;
  };

  // A fan-out's shape, drawn by the posting stream at post time so the
  // body itself draws nothing.
  enum class Shape { kInOrder, kTwoClasses, kRandom };
  struct FanOut {
    Shape shape;
    std::array<Cycles, kStreams> offset;  // random-shape delays past the lookahead
    uint32_t cancel_middle;              // minor of a middle child to cancel (0: none)
    bool cancel_front;
  };

  EventQueue::Callback Recorder(EventQueue::StreamId exec, RunKey key) {
    return [this, exec, key] {
      state_[exec].fired.push_back(key);
      if (single_threaded_) {
        global_.push_back(key);
      }
    };
  }

  // Schedules a plain event on `stream` that records its key and, before
  // kStop, draws the stream's next actions.
  void Tick(EventQueue::StreamId stream, Cycles when) {
    StreamState& st = state_[stream];
    RunKey key{when, stream, st.next_seq++, 0};
    st.scheduled.push_back(key);
    eq_.ScheduleAt(when, [this, stream, key] {
      StreamState& me = state_[stream];
      me.fired.push_back(key);
      if (single_threaded_) {
        global_.push_back(key);
      }
      const Cycles now = eq_.now();
      if (now >= kStop) {
        return;
      }
      Tick(stream, now + 1 + me.rng() % 40);
      const uint64_t roll = me.rng() % 10;
      if (roll < 3) {
        PostFanOut(stream);
      } else if (roll < 6) {
        ArmTimer(stream, now + me.rng() % 200);
      } else if (roll < 8 && !me.timers.empty()) {
        auto [id, timer_key] = me.timers.front();
        me.timers.pop_front();
        if (eq_.CancelTimer(id)) {
          me.cancelled.push_back(timer_key);
        }
      } else {
        RunKey extra{now + me.rng() % 300, stream, me.next_seq++, 0};
        me.scheduled.push_back(extra);
        eq_.ScheduleAt(std::get<0>(extra), Recorder(stream, extra));
      }
    });
  }

  void ArmTimer(EventQueue::StreamId stream, Cycles when) {
    StreamState& st = state_[stream];
    RunKey key{when, stream, st.next_seq++, 0};
    st.scheduled.push_back(key);
    st.timers.emplace_back(eq_.ScheduleTimerAt(when, Recorder(stream, key)), key);
  }

  void PostFanOut(EventQueue::StreamId poster) {
    StreamState& st = state_[poster];
    FanOut f;
    f.shape = static_cast<Shape>(st.rng() % 3);
    for (Cycles& o : f.offset) {
      o = st.rng() % (4 * kLookahead);
    }
    f.cancel_front = st.rng() % 3 == 0;
    f.cancel_middle = st.rng() % 3 == 0 ? 1 + static_cast<uint32_t>(st.rng() % kStreams) : 0;
    const uint64_t seq = st.next_seq++;
    eq_.PostSequenced([this, poster, seq, f](Cycles send_time) {
      ++fanouts_;
      std::vector<std::pair<EventQueue::EventId, RunKey>> children;
      uint32_t minor = 0;
      for (EventQueue::StreamId d = 1; d <= kStreams; ++d) {
        // Every child lands at least one lookahead after the post.
        Cycles when = send_time + kLookahead;
        switch (f.shape) {
          case Shape::kInOrder:
            break;
          case Shape::kTwoClasses:
            // Stream 1 is the "server" port (no extra latency), the
            // rest are "clients" four lookaheads away: a later fan-out's
            // server child lands before an earlier one's client children.
            when += d == 1 ? 0 : 4 * kLookahead;
            break;
          case Shape::kRandom:
            when += f.offset[d - 1];
            break;
        }
        RunKey key{when, poster, seq, ++minor};
        state_[d].scheduled.push_back(key);
        // The poster's own child goes through ScheduleAt, the others
        // through ScheduleAtFrom: both are sequenced children.
        EventQueue::EventId id = d == poster
                                     ? eq_.ScheduleAt(when, Recorder(d, key))
                                     : eq_.ScheduleAtFrom(d, when, Recorder(d, key));
        children.emplace_back(id, key);
      }
      auto cancel = [&](size_t i) {
        EventQueue::StreamId d = static_cast<EventQueue::StreamId>(i + 1);
        if (eq_.Cancel(children[i].first)) {
          state_[d].cancelled.push_back(children[i].second);
          ++run_cancels_;
        }
      };
      if (f.cancel_front) {
        cancel(0);
      }
      if (f.cancel_middle > 1) {
        cancel(f.cancel_middle - 1);
      }
    });
  }

  ShardedEventQueue eq_;
  const bool single_threaded_;
  std::vector<StreamState> state_;
  std::vector<RunKey> global_;
  uint64_t fanouts_ = 0;
  uint64_t run_cancels_ = 0;
};

class ShardedQueueRunLane : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ShardedQueueRunLane, FireOrderIsTheSortedKeyOrder) {
  const auto [shards, step_driven] = GetParam();
  FanOutHarness h(shards, step_driven);
  EXPECT_TRUE(h.eq().empty());
  EXPECT_GT(h.fanouts(), 500u);
  EXPECT_GT(h.run_cancels(), 100u);
  // The run carried whole fan-outs, not just the odd child.
  EXPECT_GE(h.eq().run_stats().high_water, static_cast<size_t>(FanOutHarness::kStreams));
  EXPECT_EQ(h.eq().run_stats().size, 0u);
  for (EventQueue::StreamId s = 1; s <= FanOutHarness::kStreams; ++s) {
    EXPECT_EQ(h.fired(s), h.expected(s)) << "stream " << s;
  }
  if (h.single_threaded()) {
    EXPECT_EQ(h.global(), h.expected_global());
  }
}

std::string RunLaneCaseName(const ::testing::TestParamInfo<std::tuple<int, bool>>& param) {
  return std::to_string(std::get<0>(param.param)) +
         (std::get<1>(param.param) ? "_step" : "_windows");
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedQueueRunLane,
                         ::testing::Combine(::testing::Values(1, 4), ::testing::Bool()),
                         RunLaneCaseName);

class DeliveryCounter : public NetEndpoint {
 public:
  explicit DeliveryCounter(const ShardedEventQueue* eq) : eq_(eq) {}
  void DeliverFrame(const std::vector<uint8_t>& frame) override {
    (void)frame;
    ++delivered;
    // Only this receiver's shard touches a run here, so the read is
    // race-free even inside a parallel window.
    if (eq_->run_stats().size == 0) {
      ++drained_seen;
    }
  }
  const ShardedEventQueue* eq_;
  uint64_t delivered = 0;
  uint64_t drained_seen = 0;
};

// Steady link traffic keeps the run from ever draining: a frame is sent
// every two wire times and delivered 40 send intervals later, so about 40
// deliveries are always pending. The ring must reuse its consumed prefix
// rather than grow with the 10^5 deliveries.
class ShardedQueueRunMemory : public ::testing::TestWithParam<int> {};

TEST_P(ShardedQueueRunMemory, CapacityStaysWithinTwicePeakPending) {
  constexpr uint64_t kFrames = 100000;
  const NetworkModel model = NetworkModel::Calibrated();
  const Cycles wire = SharedLink::MinDeliveryLatency(model);
  const Cycles interval = 2 * wire;
  ShardedEventQueue eq(GetParam(), wire);
  SharedLink link(&eq, model);
  DeliveryCounter receiver(&eq);
  const MacAddr rx_mac = MacAddr::FromIndex(1);
  const MacAddr tx_mac = MacAddr::FromIndex(2);
  EventQueue::StreamId rx = eq.NewStream(1);
  EventQueue::StreamId tx = eq.NewStream(2);
  {
    EventQueue::StreamScope scope(&eq, rx);
    link.Attach(rx_mac, &receiver, 40 * interval);
  }
  std::vector<uint8_t> frame(60, 0);
  std::copy_n(rx_mac.bytes.begin(), 6, frame.begin());
  uint64_t sent = 0;
  std::function<void()> send = [&] {
    link.Send(tx_mac, frame);
    if (++sent < kFrames) {
      eq.ScheduleAfter(interval, [&send] { send(); });
    }
  };
  {
    EventQueue::StreamScope scope(&eq, tx);
    eq.ScheduleAt(1, [&send] { send(); });
  }
  eq.RunUntil((kFrames + 100) * interval);
  ASSERT_EQ(receiver.delivered, kFrames);
  EXPECT_EQ(receiver.drained_seen, 1u);  // only the very last delivery
  const ShardedEventQueue::RunStats st = eq.run_stats();
  // At most 41 frames are in flight: the one just sent and the 40 before.
  EXPECT_GE(st.high_water, 38u);
  EXPECT_LE(st.high_water, 41u);
  EXPECT_LE(st.capacity, 2 * st.high_water);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedQueueRunMemory, ::testing::Values(1, 4));

}  // namespace
}  // namespace escort

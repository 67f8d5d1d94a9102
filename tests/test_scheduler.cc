// Scheduler tests: priority ordering, proportional-share (stride) ratios,
// EDF deadline ordering. The proportional-share property test is the
// foundation of the QoS experiments (Figures 10 and 11). The stride ready
// heap is also replayed against the linear scan it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/sim/rng.h"

namespace escort {
namespace {

struct SchedFixture {
  EventQueue eq;
  std::unique_ptr<Kernel> kernel;
  std::vector<std::unique_ptr<Owner>> owners;

  explicit SchedFixture(SchedulerKind kind) {
    KernelConfig kc;
    kc.scheduler = kind;
    kc.start_softclock = false;
    kernel = std::make_unique<Kernel>(&eq, kc);
  }

  Owner* NewOwner(const std::string& name) {
    owners.push_back(
        std::make_unique<Owner>(OwnerType::kKernel, kernel->NextOwnerId(), name));
    kernel->RegisterOwner(owners.back().get(), name);
    return owners.back().get();
  }

  // Runs `setup` inside a work item so the CPU is busy while threads are
  // enqueued — the scheduler, not arrival order, decides what runs next.
  void EnqueueWhileBusy(std::function<void()> setup) {
    Owner* dummy = NewOwner("dummy-setup");
    Thread* d = kernel->CreateThread(dummy, "setup");
    d->Push(10, kKernelDomain, std::move(setup), /*yields=*/true);
  }
};

TEST(PriorityScheduler, HigherPriorityRunsFirst) {
  SchedFixture f(SchedulerKind::kPriority);
  Owner* low = f.NewOwner("low");
  Owner* high = f.NewOwner("high");
  low->sched().priority = 1;
  high->sched().priority = 10;

  std::vector<char> order;
  Thread* tl = f.kernel->CreateThread(low, "low");
  Thread* th = f.kernel->CreateThread(high, "high");
  // Schedule low first; high must still run first once both are ready.
  f.EnqueueWhileBusy([&] {
    tl->Push(100, kKernelDomain, [&] { order.push_back('l'); }, true);
    th->Push(100, kKernelDomain, [&] { order.push_back('h'); }, true);
  });
  f.eq.RunToCompletion();
  EXPECT_EQ(order, (std::vector<char>{'h', 'l'}));
}

TEST(PriorityScheduler, FifoWithinSamePriority) {
  SchedFixture f(SchedulerKind::kPriority);
  Owner* o = f.NewOwner("o");
  std::vector<int> order;
  Thread* a = f.kernel->CreateThread(o, "a");
  Thread* b = f.kernel->CreateThread(o, "b");
  f.EnqueueWhileBusy([&] {
    a->Push(100, kKernelDomain, [&] { order.push_back(1); }, true);
    b->Push(100, kKernelDomain, [&] { order.push_back(2); }, true);
    a->Push(100, kKernelDomain, [&] { order.push_back(3); }, true);
  });
  f.eq.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Property: with continuously backlogged owners, CPU shares converge to the
// ticket ratio. Parameterized over ticket splits.
class StrideShareTest : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>> {};

TEST_P(StrideShareTest, SharesProportionalToTickets) {
  auto [tickets_a, tickets_b] = GetParam();
  SchedFixture f(SchedulerKind::kProportionalShare);
  Owner* a = f.NewOwner("a");
  Owner* b = f.NewOwner("b");
  a->sched().tickets = tickets_a;
  b->sched().tickets = tickets_b;

  Thread* ta = f.kernel->CreateThread(a, "a");
  Thread* tb = f.kernel->CreateThread(b, "b");

  // Keep both owners backlogged: every item re-queues itself, yielding.
  // The loop closures must not own themselves (shared_ptr cycle), so the
  // test scope holds them and the closure captures a raw pointer.
  std::vector<std::unique_ptr<std::function<void()>>> loops;
  auto feed = [&](Thread* t) {
    loops.push_back(std::make_unique<std::function<void()>>());
    std::function<void()>* loop = loops.back().get();
    *loop = [t, loop] { t->Push(1000, kKernelDomain, *loop, /*yields=*/true); };
    t->Push(1000, kKernelDomain, *loop, /*yields=*/true);
  };
  feed(ta);
  feed(tb);
  f.eq.RunUntil(CyclesFromMillis(50));

  double share_a = static_cast<double>(a->usage().cycles);
  double share_b = static_cast<double>(b->usage().cycles);
  double expected = static_cast<double>(tickets_a) / static_cast<double>(tickets_b);
  EXPECT_NEAR(share_a / share_b, expected, expected * 0.06)
      << "a=" << share_a << " b=" << share_b;
}

INSTANTIATE_TEST_SUITE_P(TicketRatios, StrideShareTest,
                         ::testing::Values(std::make_pair(100ull, 100ull),
                                           std::make_pair(200ull, 100ull),
                                           std::make_pair(400ull, 100ull),
                                           std::make_pair(1000ull, 100ull),
                                           std::make_pair(100ull, 300ull)));

TEST(StrideScheduler, ReservationSurvivesBlocking) {
  // A high-ticket owner that blocks briefly between work bursts must still
  // receive its share against a continuously-backlogged low-ticket owner —
  // the regression behind the QoS stream undershoot.
  SchedFixture f(SchedulerKind::kProportionalShare);
  Owner* qos = f.NewOwner("qos");
  Owner* best_effort = f.NewOwner("be");
  qos->sched().tickets = 5000;
  best_effort->sched().tickets = 100;

  Thread* tq = f.kernel->CreateThread(qos, "qos");
  Thread* tb = f.kernel->CreateThread(best_effort, "be");

  // Best-effort: continuously backlogged. The closure must not own itself
  // (shared_ptr cycle), so the test scope holds it and the closure captures
  // a raw pointer.
  std::function<void()> floop_fn;
  std::function<void()>* floop = &floop_fn;
  floop_fn = [tb, floop] { tb->Push(2000, kKernelDomain, *floop, true); };
  tb->Push(2000, kKernelDomain, floop_fn, true);

  // QoS: paced bursts every 100us, each needing 60us of CPU (60% demand).
  std::function<void()> burst_fn;
  std::function<void()>* burst = &burst_fn;
  EventQueue* eq = &f.eq;
  burst_fn = [tq, burst, eq] {
    tq->Push(18'000, kKernelDomain, nullptr, true);
    eq->ScheduleAfter(CyclesFromMicros(100), *burst);
  };
  f.eq.ScheduleAfter(CyclesFromMicros(100), burst_fn);

  f.eq.RunUntil(CyclesFromMillis(50));
  // Demand is 60%; it must get (close to) all of it.
  double got = static_cast<double>(qos->usage().cycles) /
               static_cast<double>(f.eq.now());
  EXPECT_GT(got, 0.55);
}

// --- Stride ready heap ---------------------------------------------------------

// The rule the ready heap must reproduce exactly: a FIFO of ready threads,
// scanned on every Dequeue for the minimum *current* owner pass, ties to the
// earliest arrival. It keeps its own pass per owner, so a divergence in the
// pass bookkeeping shows up as well as one in the pick.
class LinearScanOracle {
 public:
  void Enqueue(Thread* t) {
    Shadow& s = shadow_[t->owner()];
    if (!s.initialized || s.pass < global_pass_) {
      s.pass = global_pass_;
      s.initialized = true;
    }
    ready_.push_back(t);
  }

  Thread* Dequeue() {
    auto best = ready_.end();
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if (best == ready_.end() || pass((*it)->owner()) < pass((*best)->owner())) {
        best = it;
      }
    }
    if (best == ready_.end()) {
      return nullptr;
    }
    Thread* t = *best;
    ready_.erase(best);
    global_pass_ = pass(t->owner());
    return t;
  }

  void Remove(Thread* t) {
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if (*it == t) {
        ready_.erase(it);
        return;
      }
    }
  }

  void AccountRun(Thread* t, Cycles used) {
    const uint64_t tickets = t->owner()->sched().tickets;
    shadow_[t->owner()].pass += used * kStrideScale / (tickets == 0 ? 1 : tickets);
  }

  uint64_t pass(const Owner* o) const {
    auto it = shadow_.find(o);
    return it == shadow_.end() ? 0 : it->second.pass;
  }
  bool Empty() const { return ready_.empty(); }

 private:
  static constexpr uint64_t kStrideScale = 1 << 20;
  struct Shadow {
    uint64_t pass = 0;
    bool initialized = false;
  };
  std::deque<Thread*> ready_;
  std::map<const Owner*, Shadow> shadow_;
  uint64_t global_pass_ = 0;
};

// 3 x 40k seeded random Enqueue / Dequeue / Remove / AccountRun / ticket
// changes, 1-4 threads per owner. Every Dequeue must pick the oracle's thread.
TEST(StrideScheduler, ReadyHeapMatchesLinearScan) {
  constexpr int kOpsPerSeed = 40'000;
  const Cycles kRuns[] = {0, 1, 500, 1000, 1000, 4000, 20'000};
  const uint64_t kTickets[] = {0, 1, 100, 100, 100, 300, 5000, 12'000};
  uint64_t dequeues = 0;
  for (uint64_t seed : {1, 7, 13}) {
    SchedFixture f(SchedulerKind::kProportionalShare);
    Rng rng(seed);
    std::vector<Owner*> owners;
    std::vector<Thread*> threads;
    for (int o = 0; o < 12; ++o) {
      owners.push_back(f.NewOwner("o" + std::to_string(o)));
      const uint64_t n = rng.NextInRange(1, 4);
      for (uint64_t i = 0; i < n; ++i) {
        threads.push_back(f.kernel->CreateThread(owners.back(), "t"));
      }
    }
    ProportionalShareScheduler heap;
    LinearScanOracle oracle;
    std::vector<bool> queued(threads.size(), false);
    auto index_of = [&](Thread* t) {
      return static_cast<size_t>(std::find(threads.begin(), threads.end(), t) - threads.begin());
    };
    Thread* running = nullptr;
    for (int op = 0; op < kOpsPerSeed; ++op) {
      const uint64_t roll = rng.NextBelow(100);
      const size_t pick = rng.NextBelow(threads.size());
      Thread* t = threads[pick];
      if (roll < 35) {
        if (!queued[pick]) {
          heap.Enqueue(t);
          oracle.Enqueue(t);
          queued[pick] = true;
        }
      } else if (roll < 65) {
        Thread* got = heap.Dequeue();
        Thread* want = oracle.Dequeue();
        ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
        if (got != nullptr) {
          queued[index_of(got)] = false;
          running = got;
          ++dequeues;
        }
      } else if (roll < 75) {
        // Queued or not: removing an unqueued thread must be a no-op.
        heap.Remove(t);
        oracle.Remove(t);
        queued[pick] = false;
      } else if (roll < 95) {
        // Mostly the running thread, whose queued siblings then hold stale
        // keys; sometimes any thread, queued ones included.
        Thread* charged = (running != nullptr && roll < 90) ? running : t;
        const Cycles used = kRuns[rng.NextBelow(std::size(kRuns))];
        heap.AccountRun(charged, used);
        oracle.AccountRun(charged, used);
      } else {
        owners[rng.NextBelow(owners.size())]->sched().tickets =
            kTickets[rng.NextBelow(std::size(kTickets))];
      }
      ASSERT_EQ(heap.Empty(), oracle.Empty()) << "seed " << seed << " op " << op;
    }
    for (Owner* o : owners) {
      EXPECT_EQ(o->sched().pass, oracle.pass(o)) << "seed " << seed << " " << o->name();
    }
  }
  EXPECT_GT(dequeues, 30'000u);
}

TEST(StrideScheduler, SiblingChargedWhileQueued) {
  // a1 runs while its sibling a2 waits with a heap key from A's old pass.
  // Charging a1 moves A's pass past B's, so b1 — queued after a2 — must run
  // before a2.
  SchedFixture f(SchedulerKind::kProportionalShare);
  Owner* a = f.NewOwner("a");
  Owner* b = f.NewOwner("b");
  Thread* a1 = f.kernel->CreateThread(a, "a1");
  Thread* a2 = f.kernel->CreateThread(a, "a2");
  Thread* b1 = f.kernel->CreateThread(b, "b1");
  ProportionalShareScheduler sched;
  sched.Enqueue(a1);
  sched.Enqueue(a2);
  sched.Enqueue(b1);
  ASSERT_EQ(sched.Dequeue(), a1);
  sched.AccountRun(a1, 1000);
  ASSERT_GT(a->sched().pass, b->sched().pass);
  EXPECT_EQ(sched.Dequeue(), b1);
  EXPECT_EQ(sched.Dequeue(), a2);
  EXPECT_EQ(sched.Dequeue(), nullptr);
}

TEST(StrideScheduler, RemoveOfUnqueuedThreadIsNoop) {
  SchedFixture f(SchedulerKind::kProportionalShare);
  std::vector<Thread*> t;
  for (int i = 0; i < 5; ++i) {
    t.push_back(f.kernel->CreateThread(f.NewOwner("o" + std::to_string(i)), "t"));
  }
  ProportionalShareScheduler sched;
  for (int i = 0; i < 4; ++i) {
    sched.Enqueue(t[i]);
  }
  ASSERT_EQ(sched.Dequeue(), t[0]);
  sched.Remove(t[0]);  // already dequeued
  sched.Remove(t[4]);  // never queued
  sched.Remove(t[4]);
  EXPECT_EQ(sched.Dequeue(), t[1]);
  EXPECT_EQ(sched.Dequeue(), t[2]);

  // A removed thread can be queued again, and removing it twice is harmless.
  sched.Remove(t[3]);
  sched.Remove(t[3]);
  EXPECT_TRUE(sched.Empty());
  sched.Enqueue(t[3]);
  EXPECT_EQ(sched.Dequeue(), t[3]);
  EXPECT_EQ(sched.Dequeue(), nullptr);
  EXPECT_TRUE(sched.Empty());
}

TEST(EdfScheduler, EarlierDeadlineRunsFirst) {
  SchedFixture f(SchedulerKind::kEdf);
  Owner* slow = f.NewOwner("slow");
  Owner* fast = f.NewOwner("fast");
  slow->sched().period = CyclesFromMillis(100);
  fast->sched().period = CyclesFromMillis(1);

  std::vector<char> order;
  Thread* ts = f.kernel->CreateThread(slow, "s");
  Thread* tf = f.kernel->CreateThread(fast, "f");
  f.EnqueueWhileBusy([&] {
    ts->Push(100, kKernelDomain, [&] { order.push_back('s'); }, true);
    tf->Push(100, kKernelDomain, [&] { order.push_back('f'); }, true);
  });
  f.eq.RunToCompletion();
  EXPECT_EQ(order, (std::vector<char>{'f', 's'}));
}

TEST(EdfScheduler, BestEffortRunsAfterDeadlineOwners) {
  SchedFixture f(SchedulerKind::kEdf);
  Owner* rt = f.NewOwner("rt");
  Owner* be = f.NewOwner("be");
  rt->sched().period = CyclesFromMillis(5);
  be->sched().period = 0;  // best-effort backlog

  std::vector<char> order;
  Thread* t1 = f.kernel->CreateThread(be, "be");
  Thread* t2 = f.kernel->CreateThread(rt, "rt");
  f.EnqueueWhileBusy([&] {
    t1->Push(100, kKernelDomain, [&] { order.push_back('b'); }, true);
    t2->Push(100, kKernelDomain, [&] { order.push_back('r'); }, true);
  });
  f.eq.RunToCompletion();
  EXPECT_EQ(order, (std::vector<char>{'r', 'b'}));
}

TEST(Schedulers, RemoveDropsThreadFromReadyQueue) {
  for (SchedulerKind kind : {SchedulerKind::kPriority, SchedulerKind::kProportionalShare,
                             SchedulerKind::kEdf}) {
    SchedFixture f(kind);
    Owner* o = f.NewOwner("o");
    Thread* t = f.kernel->CreateThread(o, "t");
    int ran = 0;
    f.EnqueueWhileBusy([&] {
      t->Push(100, kKernelDomain, [&] { ++ran; }, true);
      t->Push(100, kKernelDomain, [&] { ++ran; }, true);
      f.kernel->StopThread(t);
    });
    f.eq.RunToCompletion();
    EXPECT_EQ(ran, 0) << "scheduler kind " << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace escort

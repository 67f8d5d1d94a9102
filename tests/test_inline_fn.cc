// InlineFn (src/sim/inline_fn.h), the callback type of the event queue,
// its sequenced transactions and the timer wheel: inline storage vs heap
// fallback, move-only captures, empty / nullptr behaviour, and that every
// captured object is destroyed exactly once whether its event fires, is
// cancelled, or is still pending when the queue is torn down.

#include "src/sim/inline_fn.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <iterator>
#include <memory>
#include <string>

#include "src/sim/event_queue.h"

namespace escort {
namespace {

using Fn = InlineFn<void()>;

// Counts live instances and "final" destructions: the destruction of the
// one instance that was never moved from. A capture destroyed exactly once
// ends with live == 0 and finals == 1.
struct ProbeCounts {
  int live = 0;
  int finals = 0;
  int calls = 0;
};

struct Probe {
  explicit Probe(ProbeCounts* c) : counts(c) { ++counts->live; }
  Probe(Probe&& o) noexcept : counts(o.counts) {
    ++counts->live;
    o.moved_from = true;
  }
  Probe(const Probe& o) : counts(o.counts) { ++counts->live; }
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    --counts->live;
    if (!moved_from) {
      ++counts->finals;
    }
  }
  ProbeCounts* counts;
  bool moved_from = false;
};

// A callable of about `Bytes` bytes holding a Probe.
template <size_t Bytes>
struct ProbeFn {
  explicit ProbeFn(ProbeCounts* c) : probe(c) {}
  void operator()() const { ++probe.counts->calls; }
  Probe probe;
  std::array<char, Bytes - sizeof(Probe)> pad{};
};
using SmallProbe = ProbeFn<24>;
using LargeProbe = ProbeFn<96>;

TEST(InlineFn, EmptyAndNullptr) {
  Fn empty;
  EXPECT_FALSE(empty);
  EXPECT_TRUE(empty == nullptr);
  EXPECT_TRUE(nullptr == empty);
  EXPECT_FALSE(empty != nullptr);
  EXPECT_FALSE(empty.stored_inline());

  Fn from_null = nullptr;
  EXPECT_TRUE(from_null == nullptr);
  Fn from_empty_function = std::function<void()>();
  EXPECT_TRUE(from_empty_function == nullptr);
  void (*null_ptr)() = nullptr;
  Fn from_null_pointer = null_ptr;
  EXPECT_TRUE(from_null_pointer == nullptr);

  int hits = 0;
  Fn f = [&hits] { ++hits; };
  EXPECT_TRUE(f != nullptr);
  EXPECT_TRUE(nullptr != f);
  f();
  EXPECT_EQ(hits, 1);
  f = nullptr;
  EXPECT_TRUE(f == nullptr);

  Fn moved_into = std::move(empty);
  EXPECT_TRUE(moved_into == nullptr);
}

TEST(InlineFn, SmallCapturesInlineLargeOnesOnTheHeap) {
  int hits = 0;
  Fn small = [&hits] { ++hits; };
  EXPECT_TRUE(small.stored_inline());

  std::array<char, Fn::kCapacity - sizeof(int*)> fill{};
  Fn at_capacity = [&hits, fill] { hits += fill[0] + 1; };
  EXPECT_TRUE(at_capacity.stored_inline());

  std::array<char, Fn::kCapacity> over{};
  Fn too_big = [&hits, over] { hits += over[0] + 1; };
  EXPECT_FALSE(too_big.stored_inline());

  struct alignas(16) OverAligned {
    int* hits;
    void operator()() const { ++*hits; }
  };
  Fn over_aligned = OverAligned{&hits};
  EXPECT_FALSE(over_aligned.stored_inline());

  struct ThrowingMove {
    int* hits;
    ThrowingMove(int* h) : hits(h) {}
    ThrowingMove(ThrowingMove&& o) noexcept(false) : hits(o.hits) {}
    void operator()() const { ++*hits; }
  };
  Fn throwing_move = ThrowingMove{&hits};
  EXPECT_FALSE(throwing_move.stored_inline());

  std::function<void()> wrapped = [&hits] { ++hits; };
  Fn from_function = wrapped;  // copies the std::function, which fits
  EXPECT_TRUE(from_function.stored_inline());

  // A move keeps the storage kind and empties the source.
  Fn moved_small = std::move(small);
  Fn moved_big = std::move(too_big);
  EXPECT_TRUE(moved_small.stored_inline());
  EXPECT_FALSE(moved_big.stored_inline());
  EXPECT_TRUE(small == nullptr);
  EXPECT_TRUE(too_big == nullptr);

  for (Fn* f : {&moved_small, &at_capacity, &moved_big, &over_aligned, &throwing_move,
                &from_function}) {
    (*f)();
  }
  EXPECT_EQ(hits, 6);
  wrapped();
  EXPECT_EQ(hits, 7);
}

TEST(InlineFn, MoveOnlyCapturesAndArguments) {
  auto owned = std::make_unique<int>(41);
  InlineFn<int(int)> add = [p = std::move(owned)](int x) { return *p + x; };
  EXPECT_TRUE(add.stored_inline());
  InlineFn<int(int)> moved = std::move(add);
  EXPECT_TRUE(add == nullptr);
  EXPECT_EQ(moved(1), 42);

  // A mutable target runs through the const call operator, as with
  // std::function.
  InlineFn<int()> counter = [n = 0]() mutable { return ++n; };
  counter();
  EXPECT_EQ(counter(), 2);

  // A void signature discards the target's result.
  int calls = 0;
  Fn discard = [&calls] { return ++calls; };
  discard();
  EXPECT_EQ(calls, 1);

  // A target that points into itself is moved by its move constructor,
  // never by copying its bytes.
  struct SelfRef {
    SelfRef() = default;
    SelfRef(SelfRef&&) noexcept {}
    bool operator()() const { return self == this; }
    const SelfRef* self = this;
  };
  InlineFn<bool()> self_ref = SelfRef();
  InlineFn<bool()> self_ref_moved = std::move(self_ref);
  EXPECT_TRUE(self_ref_moved.stored_inline());
  EXPECT_TRUE(self_ref_moved());

  // A move-only argument is passed through.
  InlineFn<size_t(std::unique_ptr<std::string>)> take =
      [](std::unique_ptr<std::string> s) { return s->size(); };
  EXPECT_EQ(take(std::make_unique<std::string>("frame")), 5u);
}

template <class P>
void ExpectDestroyedOnceStandalone() {
  ProbeCounts counts;
  {
    Fn f = P(&counts);
    Fn g = std::move(f);
    Fn h;
    h = std::move(g);
    h();
    EXPECT_EQ(counts.finals, 0);
  }
  EXPECT_EQ(counts.calls, 1);
  EXPECT_EQ(counts.finals, 1);
  EXPECT_EQ(counts.live, 0);

  ProbeCounts reassigned;
  Fn f = P(&reassigned);
  f = nullptr;
  EXPECT_EQ(reassigned.finals, 1);
  EXPECT_EQ(reassigned.live, 0);
  f = P(&reassigned);
  f = Fn(P(&reassigned));  // assignment over a live target destroys it
  EXPECT_EQ(reassigned.finals, 2);
  f = nullptr;
  EXPECT_EQ(reassigned.finals, 3);
  EXPECT_EQ(reassigned.live, 0);
}

TEST(InlineFn, StandaloneTargetsAreDestroyedExactlyOnce) {
  static_assert(sizeof(SmallProbe) <= Fn::kCapacity);
  static_assert(sizeof(LargeProbe) > Fn::kCapacity);
  ExpectDestroyedOnceStandalone<SmallProbe>();
  ExpectDestroyedOnceStandalone<LargeProbe>();
}

// Fire, cancel and teardown through one queue kind; `timers` routes the
// callbacks through the timer wheel instead of the event heap. The serial
// queue's heap drops a cancelled event lazily, when it reaches the top;
// everywhere else Cancel destroys the callback at once (`eager_cancel`).
template <class P>
void ExpectDestroyedOnceInQueue(const std::function<std::unique_ptr<EventQueue>()>& make,
                                bool timers, bool eager_cancel) {
  ProbeCounts fired;
  ProbeCounts cancelled;
  ProbeCounts pending;
  ProbeCounts txn;
  {
    std::unique_ptr<EventQueue> eq = make();
    auto schedule = [&](Cycles when, ProbeCounts* c) {
      return timers ? eq->ScheduleTimerAt(when, P(c)) : eq->ScheduleAt(when, P(c));
    };
    auto cancel = [&](uint64_t id) { return timers ? eq->CancelTimer(id) : eq->Cancel(id); };
    schedule(10, &fired);
    const uint64_t id = schedule(20, &cancelled);
    schedule(1000, &pending);
    eq->ScheduleAt(30, [&eq, &txn] {
      eq->PostSequenced([probe = P(&txn)](Cycles) { probe(); });
    });

    EXPECT_TRUE(cancel(id));
    if (eager_cancel) {
      EXPECT_EQ(cancelled.finals, 1) << "a cancelled callback is destroyed at Cancel";
      EXPECT_EQ(cancelled.live, 0);
    }
    EXPECT_FALSE(cancel(id));

    eq->RunUntil(500);
    EXPECT_EQ(cancelled.finals, 1) << "a cancelled callback is destroyed by its time";
    EXPECT_EQ(cancelled.live, 0);
    EXPECT_EQ(fired.calls, 1);
    EXPECT_EQ(fired.finals, 1);
    EXPECT_EQ(fired.live, 0);
    EXPECT_EQ(txn.calls, 1);
    EXPECT_EQ(txn.finals, 1);
    EXPECT_EQ(txn.live, 0);
    EXPECT_EQ(cancelled.calls, 0);
    EXPECT_EQ(pending.finals, 0);
    EXPECT_EQ(pending.live, 1);
  }
  EXPECT_EQ(pending.calls, 0);
  EXPECT_EQ(pending.finals, 1) << "pending callbacks are destroyed with the queue";
  EXPECT_EQ(pending.live, 0);
  EXPECT_EQ(cancelled.finals, 1);
  EXPECT_EQ(fired.finals, 1);
}

TEST(InlineFn, QueuedCallbacksAreDestroyedExactlyOnce) {
  const std::function<std::unique_ptr<EventQueue>()> makers[] = {
      [] { return std::make_unique<EventQueue>(); },
      [] { return std::make_unique<ShardedEventQueue>(1, 50); },
      [] { return std::make_unique<ShardedEventQueue>(4, 50); },
  };
  for (size_t q = 0; q < std::size(makers); ++q) {
    for (bool timers : {false, true}) {
      SCOPED_TRACE(std::string(timers ? "timer wheel" : "event heap") + ", queue " +
                   std::to_string(q));
      const bool eager_cancel = q > 0 || timers;
      ExpectDestroyedOnceInQueue<SmallProbe>(makers[q], timers, eager_cancel);
      ExpectDestroyedOnceInQueue<LargeProbe>(makers[q], timers, eager_cancel);
    }
  }
}

}  // namespace
}  // namespace escort

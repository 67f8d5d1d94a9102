// Discrete-event queue: the single source of simulated time.
//
// Every actor in the system (the server CPU, network links, the disk, client
// machines) schedules callbacks at absolute cycle times. Events at equal
// times fire in scheduling order (FIFO), which keeps runs deterministic.
//
// Two implementations share one interface:
//
//  * EventQueue — the serial queue. One heap, one clock, a global FIFO
//    sequence for equal-time ties. This is the semantics every unit test
//    pins and the default for all testbeds.
//
//  * ShardedEventQueue — conservative parallel discrete-event simulation
//    for a single cell. Actors are grouped into *streams* (one per client
//    machine / attacker; the server, link and kernel share stream 0), and
//    streams are partitioned across N shards, each with its own heap and
//    local clock. Shards execute concurrently inside conservative lookahead
//    windows derived from the minimum link delivery latency; cross-shard
//    sends are time-stamped mailbox deposits (PostSequenced) drained in
//    deterministic key order at window boundaries. A one-shard queue runs
//    the same windows in a direct loop, without the per-window horizon
//    machinery (DESIGN.md §6.5).
//
//    Determinism contract: events are totally ordered by the key
//    (when, stream, seq, minor). Stream ids and per-stream sequence numbers
//    depend only on the simulation's causal structure — never on the shard
//    count or thread scheduling — so a run is bit-identical at any N
//    (tests/test_sharded_equivalence.cc is the regression test).

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "src/sim/inline_fn.h"
#include "src/sim/timer_wheel.h"
#include "src/sim/types.h"

namespace escort {

class MetricsRegistry;
class ShardGang;
class ShardedSeries;

// Tracks which event ids have been consumed (fired or cancelled). Ids are
// dense and monotonically increasing, so instead of one bit per event ever
// scheduled (which grows without bound over million-event runs) the ledger
// keeps a sliding window [base_, base_ + slots_.size()) and drops the
// fully-consumed prefix: any id below base_ is consumed by definition.
// EventId semantics are unchanged — ids are never reused or renumbered.
class ConsumedLedger {
 public:
  // Registers the next id and returns it.
  uint64_t Append() {
    slots_.push_back(false);
    return base_ + slots_.size() - 1;
  }

  // Marks `id` consumed. Returns false if it was already consumed (or was
  // never issued). Compacts the consumed prefix as a side effect.
  bool Mark(uint64_t id) {
    if (id < base_) {
      return false;
    }
    size_t idx = static_cast<size_t>(id - base_);
    if (idx >= slots_.size() || slots_[idx]) {
      return false;
    }
    slots_[idx] = true;
    while (!slots_.empty() && slots_.front()) {
      slots_.pop_front();
      ++base_;
    }
    return true;
  }

  bool IsConsumed(uint64_t id) const {
    if (id < base_) {
      return true;
    }
    size_t idx = static_cast<size_t>(id - base_);
    return idx < slots_.size() && slots_[idx];
  }

  uint64_t next_id() const { return base_ + slots_.size(); }
  // Live window size — bounded by the number of outstanding (unconsumed)
  // events, not by the total ever scheduled.
  size_t slot_count() const { return slots_.size(); }
  uint64_t base() const { return base_; }

 private:
  std::deque<bool> slots_;
  uint64_t base_ = 0;
};

class EventQueue {
 public:
  // Move-only; captures up to InlineFn::kCapacity bytes live in the
  // queue's own slot (src/sim/inline_fn.h).
  using Callback = InlineFn<void()>;
  using EventId = uint64_t;
  // Identity of an actor for deterministic ordering. Stream 0 always
  // exists (the server/kernel/main context); testbeds allocate one stream
  // per client machine via NewStream().
  using StreamId = uint32_t;
  // A sequenced cross-actor transaction body; receives the simulated time
  // at which the transaction was posted.
  using SequencedFn = InlineFn<void(Cycles send_time)>;

  EventQueue() = default;
  virtual ~EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Current simulated time. Only advances inside RunUntil/Step.
  virtual Cycles now() const { return now_; }

  // Stable reference to the clock, for components that need to observe time
  // without holding the whole queue (e.g. the EDF scheduler). On a sharded
  // queue this is the stream-0 shard's clock: only stream-0 code (the
  // kernel and server) may observe it.
  virtual const Cycles& now_ref() const { return now_; }

  // Schedules `fn` to run at absolute time `when`. Times in the past are
  // clamped to `now()`. Returns an id usable with Cancel().
  //
  // Deferred-capture contract (EA001, tools/analyze/escort_analyzer.py):
  // `fn` outlives the current event, so it must not capture raw pointers
  // or references to kernel-lifetime objects (Path, Thread, TcpPcb, ...);
  // capture a value key and revalidate at fire time instead.
  // ESCORT_DEFERRED_API
  virtual EventId ScheduleAt(Cycles when, Callback fn);

  // Schedules `fn` to run `delay` cycles from now.
  // ESCORT_DEFERRED_API
  EventId ScheduleAfter(Cycles delay, Callback fn) {
    return ScheduleAt(now() + delay, std::move(fn));
  }

  // Cancels a pending event. Returns false if it already fired or was
  // cancelled. Cancellation is O(1); the slot is dropped lazily on pop.
  virtual bool Cancel(EventId id);

  // ---- Timers (hierarchical timer wheel) -------------------------------
  //
  // Per-connection timers (TCP retransmit, delayed ACK, client think time)
  // are armed and cancelled at connection rate: at million-client scale the
  // O(log n) heap churn dominates. ScheduleTimerAt files them into a
  // per-shard hierarchical TimerWheel instead — O(1) arm/cancel/fire — and
  // the queue merges the wheel's due-top against the event heap by the full
  // total-order key (when, stream, seq, minor). A timer consumes exactly
  // one sequence number from the scheduling stream, the same one a
  // ScheduleAt at that point would have consumed, so runs are bit-identical
  // whether a deadline lives in the wheel or the heap (and at any shard
  // count). set_timer_wheel(false) routes timers through ScheduleAt — the
  // equivalence grid pins both modes against each other.
  //
  // TimerId encoding: bit 63 set = heap fallback wrapping the EventId
  // (EventId shard ids stop at bit 61, so the bit is always free); bit 63 clear =
  // wheel: bits 56..62 shard, bits 32..55 wheel entry index, bits 0..31
  // generation tag.
  using TimerId = uint64_t;
  static constexpr TimerId kTimerHeapBit = uint64_t{1} << 63;

  // Same deferred-capture contract as ScheduleAt (EA001).
  // ESCORT_DEFERRED_API
  virtual TimerId ScheduleTimerAt(Cycles when, Callback fn);

  // ESCORT_DEFERRED_API
  TimerId ScheduleTimerAfter(Cycles delay, Callback fn) {
    return ScheduleTimerAt(now() + delay, std::move(fn));
  }

  // Cancels an armed timer. False if it fired, was cancelled, or the wheel
  // slot was re-issued (generation mismatch). O(1).
  virtual bool CancelTimer(TimerId id);

  // Routes ScheduleTimerAt through the heap (legacy path) when off. Flip
  // only at a serial point, before or between runs.
  void set_timer_wheel(bool on) { use_timer_wheel_ = on; }
  bool timer_wheel() const { return use_timer_wheel_; }

  // Registers the "sim.timers_armed" occupancy series in `m` (null
  // detaches): one lane per shard, per-shard (time-bin, delta) appends
  // merged deterministically at serialization (src/sim/metrics.h). Call
  // at a serial point before any timers are armed; zero in heap-fallback
  // mode (timers live in the event heap, like timer_stats()).
  virtual void AttachMetrics(MetricsRegistry* m);

  // Wheel occupancy for the bench `memory` block (aggregated over shards).
  struct TimerWheelStats {
    uint64_t armed = 0;
    uint64_t high_water = 0;
    uint64_t capacity = 0;
    uint64_t bytes_reserved = 0;
  };
  virtual TimerWheelStats timer_stats() const;

  // Fires the next pending event, advancing time to its deadline.
  // Returns false if the queue is empty.
  virtual bool Step();

  // Runs events until `deadline` (inclusive). Time is left at `deadline`
  // even if the queue drains earlier.
  virtual void RunUntil(Cycles deadline);

  // Runs until no events remain.
  virtual void RunToCompletion();

  // Time of the earliest pending event; returns false via `ok` if none.
  virtual bool PeekNext(Cycles* when) const;

  virtual bool empty() const { return pending() == 0; }
  virtual size_t pending() const {
    return live_count_ + (wheel_ != nullptr ? wheel_->armed() : 0);
  }
  virtual uint64_t fired_count() const { return fired_count_; }

  // Size of the bookkeeping that tells pending ids from consumed ones
  // (test hook: bounded by outstanding events, not by events ever
  // scheduled). Here the consumed-ledger window; ShardedEventQueue reports
  // its slot tables.
  virtual size_t consumed_slot_count() const { return ledger_.slot_count(); }

  // ---- Actor streams (meaningful on ShardedEventQueue; no-ops here) ----

  // Allocates a new stream homed on `shard`. The serial queue keeps every
  // actor on stream 0.
  virtual StreamId NewStream(int shard) {
    (void)shard;
    return 0;
  }

  // Stream whose context is currently executing (or the ambient stream set
  // by a StreamScope during testbed construction).
  virtual StreamId current_stream() const { return 0; }

  // Schedules `fn` to run in the context of `exec_stream` — i.e. events
  // that `fn` itself schedules are ordered as that stream's actions. Used
  // by the shared link to hand a frame delivery to the receiving machine's
  // stream. The serial queue ignores the stream.
  // ESCORT_DEFERRED_API
  virtual EventId ScheduleAtFrom(StreamId exec_stream, Cycles when, Callback fn) {
    (void)exec_stream;
    return ScheduleAt(when, std::move(fn));
  }

  // Posts a sequenced transaction: a body that reads/writes state shared
  // between streams (the wire medium). On the serial queue it runs inline.
  // On a sharded queue it consumes exactly one sequence number from the
  // posting stream at call time; inside RunUntil windows (parallel,
  // inline, or the single-shard loop) the body is deposited in a mailbox
  // and drained at the window boundary in deterministic (time, stream,
  // seq) order, at any shard count. That key order is not the post order:
  // a body posted earlier within one window at the same time by a higher
  // stream runs after a lower stream's (tests/test_sharded_queue.cc,
  // TransactionDrainFollowsKeyOrderNotPostOrder). Outside windows — Step,
  // RunToCompletion, serial points — bodies run inline in post order, so
  // Step-driven runs (RunAccountingAccuracy, RunKillCost: table1/table2)
  // order them differently from RunUntil-driven ones. A body is held past
  // the next boundary if any shard still has a pending event at or before
  // its post time (only possible under adaptive horizons). The body runs
  // at a serial point (EA002 treats it as serial context), but it is
  // still deferred: the EA001 capture contract applies.
  // ESCORT_DEFERRED_API
  virtual void PostSequenced(SequencedFn fn) { fn(now()); }

  // RAII ambient-stream setter for testbed construction: actors created
  // and started inside the scope schedule their events on `stream`.
  class StreamScope {
   public:
    StreamScope(EventQueue* eq, StreamId stream)
        : eq_(eq), prev_(eq->SwapCurrentStream(stream)) {}
    ~StreamScope() { eq_->SwapCurrentStream(prev_); }
    StreamScope(const StreamScope&) = delete;
    StreamScope& operator=(const StreamScope&) = delete;

   private:
    EventQueue* eq_;
    StreamId prev_;
  };

 protected:
  // Swaps the ambient stream used outside event execution; returns the
  // previous value. No-op on the serial queue (everything is stream 0).
  virtual StreamId SwapCurrentStream(StreamId stream) {
    (void)stream;
    return 0;
  }

 protected:
  bool use_timer_wheel_ = true;
  // Wheel-timer occupancy series; null = metrics off (one pointer test
  // per arm/fire/cancel).
  ShardedSeries* timer_series_ = nullptr;

 private:
  struct Event {
    Cycles when;
    uint64_t seq;
    EventId id;
    Callback fn;
    bool operator>(const Event& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  // Skips over cancelled entries at the head of the heap.
  void SkipCancelled() const;
  // True when the wheel's due-top precedes the (compacted) heap top in
  // (when, seq) order; stages the wheel as a side effect.
  bool TimerFirst(TimerKey* tk) const;

  mutable std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  ConsumedLedger ledger_;
  // Lazily created on the first ScheduleTimerAt; mutable because peeks
  // stage due slots (same reasoning as the compacting heap peeks).
  mutable std::unique_ptr<TimerWheel> wheel_;
  Cycles now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  uint64_t fired_count_ = 0;
};

// Per-shard scheduling profile aggregated over a run: the signal needed
// to tune conservative lookahead windows (how long windows are, how many
// shards each one dispatches, how deep the cross-shard mailbox gets).
// Collected unconditionally — every field is maintained at serial points
// of RunUntil, so the cost is a handful of adds per window.
struct ShardProfile {
  struct PerShard {
    uint64_t events_fired = 0;
    // Windows in which the scheduler dispatched this shard (it had a
    // runnable event below its horizon, so a worker was woken or the shard
    // ran inline). The complement (windows_run - windows_woken) is time the
    // shard stayed parked, which costs nothing under the gang scheduler.
    uint64_t windows_woken = 0;
    // Windows in which this shard actually fired at least one event. A
    // woken-but-inactive window is a wasted wakeup: the shard was
    // dispatched but its cap closed before the first event. The wasted
    // fraction 1 - windows_active / windows_woken is the bench
    // `idle_fraction`; participation over the whole run is recoverable as
    // windows_active / windows_run.
    uint64_t windows_active = 0;
  };

  int shards = 0;
  Cycles lookahead = 0;
  uint64_t windows_run = 0;
  uint64_t parallel_windows = 0;
  // Sum over windows of (horizon - window start): mean window length is
  // window_cycles / windows_run.
  Cycles window_cycles = 0;
  // Cross-shard mailbox traffic: total transactions drained, and the
  // largest batch observed at any single drain.
  uint64_t txns_drained = 0;
  uint64_t max_mailbox_depth = 0;
  std::vector<PerShard> per_shard;
};

// Conservative-PDES sharded queue. See the file comment for the design and
// DESIGN.md "Sharded event queue" for the synchronization contract.
class ShardedEventQueue : public EventQueue {
 public:
  // `shards` is clamped to [1, 64]. `lookahead` is the conservative window
  // length in cycles: the minimum latency of any cross-stream interaction
  // (for the testbed: the shortest possible link delivery, see
  // SharedLink::MinDeliveryLatency). 0 degenerates to serial execution.
  // `adaptive` enables per-shard adaptive horizons (see ComputeHorizons);
  // results are bit-identical either way — only window count changes.
  explicit ShardedEventQueue(int shards, Cycles lookahead = 0, bool adaptive = false);
  ~ShardedEventQueue() override;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Cycles lookahead() const { return lookahead_; }
  bool adaptive_lookahead() const { return adaptive_; }
  void set_adaptive_lookahead(bool on) { adaptive_ = on; }

  // Sentinel for "shard has no pending event" in ComputeHorizons input.
  static constexpr Cycles kNoEvent = ~static_cast<Cycles>(0);

  // Window horizon computation, exposed for unit tests (pure function).
  //
  // `earliest[s]` is shard s's earliest pending event time (kNoEvent when
  // empty). Non-adaptive: every shard gets the classic conservative window
  // H = T + lookahead, T = min earliest. Adaptive: shard r's horizon is
  //   H_r = min over s != r, s non-empty, of (earliest[s] + lookahead)
  // i.e. the earliest instant any *other* shard's pending work could make
  // a cross-shard effect land (a send posted at time t delivers at
  // >= t + lookahead). Empty shards are excluded: cross-shard inserts
  // happen only from running shards, and those cap the running window at
  // insert time (see DESIGN.md §6.8 for the correctness argument). With no
  // other non-empty shard, H_r runs to the deadline. All horizons are
  // capped at deadline + 1 (windows execute events with when < H).
  static void ComputeHorizons(const std::vector<Cycles>& earliest, Cycles lookahead,
                              Cycles deadline, bool adaptive, std::vector<Cycles>* horizons);

  Cycles now() const override;
  const Cycles& now_ref() const override;
  EventId ScheduleAt(Cycles when, Callback fn) override;
  EventId ScheduleAtFrom(StreamId exec_stream, Cycles when, Callback fn) override;
  bool Cancel(EventId id) override;
  TimerId ScheduleTimerAt(Cycles when, Callback fn) override;
  bool CancelTimer(TimerId id) override;
  void AttachMetrics(MetricsRegistry* m) override;
  TimerWheelStats timer_stats() const override;
  bool Step() override;
  void RunUntil(Cycles deadline) override;
  void RunToCompletion() override;
  bool PeekNext(Cycles* when) const override;
  bool empty() const override;
  size_t pending() const override;
  uint64_t fired_count() const override;
  // Total slot-table size over all shards: each table grows only to its
  // shard's peak number of outstanding events, since fired and
  // cancelled slots are reused.
  size_t consumed_slot_count() const override;

  // Sorted-run occupancy summed over shards (tests): entries held now,
  // stale ones included; the most each run ever held; ring capacity.
  struct RunStats {
    size_t size = 0;
    size_t high_water = 0;
    size_t capacity = 0;
  };
  RunStats run_stats() const;

  StreamId NewStream(int shard) override;
  StreamId current_stream() const override;
  void PostSequenced(SequencedFn fn) override;

  // Scheduling introspection (tests): windows executed by RunUntil, and
  // how many of them dispatched 2+ shards onto the pool.
  uint64_t windows_run() const { return windows_run_; }
  uint64_t parallel_windows() const { return parallel_windows_; }

  // Scheduling profile for lookahead tuning (serialized into the bench
  // JSON `shard_utilization` block). Call at a serial point.
  ShardProfile Profile() const;

  // Home shard of a stream (tests).
  int shard_of(StreamId stream) const { return streams_[stream].shard; }

 protected:
  StreamId SwapCurrentStream(StreamId stream) override;

 private:
  // Total order over all events; independent of shard count by
  // construction (streams and seqs are assigned causally, minors index
  // deliveries within one sequenced transaction). Laid out when/seq/
  // stream/minor so the key packs into 24 bytes, but compared in
  // (when, stream, seq, minor) order; the constructor takes the fields in
  // that comparison order.
  struct Key {
    Cycles when;
    uint64_t seq;
    StreamId stream;
    uint32_t minor;
    Key() = default;
    Key(Cycles w, StreamId st, uint64_t sq, uint32_t mn)
        : when(w), seq(sq), stream(st), minor(mn) {}
    bool operator<(const Key& o) const {
      if (when != o.when) return when < o.when;
      if (stream != o.stream) return stream < o.stream;
      if (seq != o.seq) return seq < o.seq;
      return minor < o.minor;
    }
  };

  // A heap or run entry: the event's key plus the slot-table handle that
  // holds its callback. Trivially copyable, so heap sifts never move a
  // callback. The entry is stale (a cancelled event) when `gen` no
  // longer matches its slot's generation.
  struct Entry {
    Key key;
    uint32_t slot;
    uint32_t gen;
  };
  static_assert(sizeof(Entry) == 32, "heap and run entries stay 32 bytes");

  // One slot-table entry: the callback and the stream whose context runs
  // it (child-event identity). `gen` is bumped every time the slot is
  // freed (fired or cancelled), which invalidates both the ids handed out
  // for it and any heap or run entry still referring to it.
  struct Slot {
    Callback fn;
    uint32_t gen = 0;
    StreamId exec = 0;
  };
  static_assert(sizeof(Slot) == 64, "a slot (callback + inline capture) is one cache line");

  // Min-heap of Entry with a pre-reserved backing vector: shard heaps churn
  // tens of thousands of push/pop pairs per cell, and std::priority_queue
  // does not reserve.
  class EventHeap {
   public:
    EventHeap() { entries_.reserve(kReserve); }
    bool empty() const { return entries_.empty(); }
    const Entry& top() const { return entries_.front(); }
    void push(const Entry& e) {
      entries_.push_back(e);
      std::push_heap(entries_.begin(), entries_.end(), Later());
    }
    // Removes and returns the minimum-key entry.
    Entry pop() {
      std::pop_heap(entries_.begin(), entries_.end(), Later());
      Entry e = entries_.back();
      entries_.pop_back();
      return e;
    }

   private:
    struct Later {
      bool operator()(const Entry& a, const Entry& b) const { return b.key < a.key; }
    };
    static constexpr size_t kReserve = 256;
    std::vector<Entry> entries_;
  };

  // FIFO of entries that arrive already in key order: the children of
  // sequenced transactions (link deliveries), admitted by Insert only
  // while each new key exceeds the tail's. A power-of-two ring that
  // doubles only when full, so its capacity stays within twice its peak
  // occupancy however long steady traffic keeps it from draining.
  class RunLane {
   public:
    bool empty() const { return size_ == 0; }
    const Entry& front() const { return ring_[head_]; }
    const Entry& back() const { return ring_[(head_ + size_ - 1) & mask_]; }
    void push(const Entry& e) {
      if (size_ == ring_.size()) {
        Grow();
      }
      ring_[(head_ + size_) & mask_] = e;
      if (++size_ > high_water_) {
        high_water_ = size_;
      }
    }
    Entry pop() {
      const Entry e = ring_[head_];
      head_ = (head_ + 1) & mask_;
      --size_;
      return e;
    }
    size_t size() const { return size_; }
    size_t high_water() const { return high_water_; }
    size_t capacity() const { return ring_.size(); }

   private:
    void Grow() {
      std::vector<Entry> next(ring_.empty() ? kInitial : ring_.size() * 2);
      for (size_t i = 0; i < size_; ++i) {
        next[i] = ring_[(head_ + i) & mask_];
      }
      ring_.swap(next);
      head_ = 0;
      mask_ = ring_.size() - 1;
    }
    static constexpr size_t kInitial = 64;
    std::vector<Entry> ring_;
    size_t head_ = 0;
    size_t size_ = 0;
    size_t mask_ = 0;
    size_t high_water_ = 0;
  };

  struct Shard {
    // Pending entries live in one of two lanes, both keyed by the total
    // order and both lazily purged of stale (cancelled) entries at their
    // heads: the sorted run, popped in O(1), and the heap for the rest.
    mutable EventHeap heap;
    mutable RunLane run;
    // Slot table: callbacks of pending events, indexed by Entry::slot, and
    // a LIFO freelist of released slots. The table never shrinks, so its
    // size is the shard's peak number of outstanding events.
    std::vector<Slot> slots;
    std::vector<uint32_t> free_slots;
    // Per-shard timer wheel, lazily created on the first timer arm.
    // Touched only by the thread running this shard (or at serial points);
    // mutable because peeks stage due slots, like the compacting heap
    // peeks above.
    mutable std::unique_ptr<TimerWheel> wheel;
    Cycles clock = 0;
    uint64_t fired = 0;
    uint64_t windows_woken = 0;   // windows this shard was dispatched in
    uint64_t windows_active = 0;  // windows this shard fired >= 1 event in
    // Current window bounds. `window_horizon` is fixed at the window's
    // serial point; `window_cap` shrinks at runtime when this shard's own
    // activity bounds how far it may safely run (a posted send, or a
    // cross-shard insert observed while running inline). Both are written
    // only at serial points or by the thread running this shard.
    Cycles window_horizon = 0;
    Cycles window_cap = 0;

    size_t live() const { return slots.size() - free_slots.size(); }
    // A cancelled event's entry: its slot has moved on to a later
    // generation.
    bool Stale(const Entry& e) const { return slots[e.slot].gen != e.gen; }
    // Frees `slot` (its callback already moved out): bumps the generation
    // so outstanding ids and heap or run entries for it go stale.
    void Release(uint32_t slot) {
      ++slots[slot].gen;
      free_slots.push_back(slot);
    }
  };

  struct Stream {
    int shard = 0;
    uint64_t next_seq = 0;
  };

  // A deposited cross-stream transaction, drained in Key order.
  struct Txn {
    Cycles when;
    StreamId stream;
    uint64_t seq;
    SequencedFn fn;
  };

  // Where a shard's earliest pending event lives (PeekShard's answer).
  enum class Head { kNone, kHeap, kRun, kTimer };

  // EventId = shard << 56 | gen << 26 | slot. The slot field holds 2^26
  // pending events per shard (a 16M-client cell holds one start event per
  // client); the low 30 bits of the slot generation fill the rest. Shard
  // ids stop at bit 61, so bit 63 stays free for kTimerHeapBit.
  static constexpr int kShardShift = 56;
  static constexpr int kSlotBits = 26;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kGenMask = (uint64_t{1} << (kShardShift - kSlotBits)) - 1;

  // Drops stale entries from the heads of shard s's heap and run and
  // reports where its earliest pending event lives (heap, run or wheel),
  // with its key.
  Head PeekShard(size_t s, Key* key) const;
  Head GlobalPeek(size_t* shard, Key* key) const;
  // `child`: scheduled by a sequenced transaction body, so a candidate for
  // the shard's sorted run.
  EventId Insert(size_t shard, Key key, StreamId exec, Callback fn, bool child);
  // Window-cap / drain-floor bookkeeping shared by heap inserts and wheel
  // arms (both make a pending deadline visible to the scheduler).
  void NoteInsert(size_t shard, Cycles when);
  // Pops and runs the head of shard `s`; `head` is the answer of the
  // PeekShard call made just before (never kNone).
  void ExecuteTop(size_t s, Head head);
  // Runs every event of shard `s` with key.when < min(window_horizon,
  // window_cap) — the bounds set up by RunUntil for the current window.
  void RunShardWindow(size_t s);
  // RunUntil's windowed scheduler (several shards or adaptive horizons)
  // and its single-shard equivalent: the same windows, boundaries, drains
  // and counters, without the per-window horizon vectors.
  void RunWindows(Cycles deadline);
  void RunSerialWindows(Cycles deadline);
  // Runs deposited transactions in deterministic key order (serial points
  // only — never while workers run).
  void DrainTransactions();
  void RunTxn(Txn& txn);

  std::vector<Shard> shards_;
  std::vector<Stream> streams_;
  StreamId main_stream_ = 0;  // ambient stream outside event execution
  Cycles now_floor_ = 0;      // committed global time (main-context now())
  Cycles lookahead_ = 0;
  bool adaptive_ = false;
  std::vector<Txn> txns_;
  // Guards txns_ against concurrent deposits from parallel-window workers;
  // every other access happens on the scheduling thread.
  std::mutex txn_mu_;
  std::unique_ptr<ShardGang> gang_;
  bool in_parallel_window_ = false;
  // Shard whose window is currently running inline on this thread (-1
  // outside inline windows). Lets Insert() spot a cross-shard insert and
  // cap the running window so the target's new event is never overtaken.
  int inline_window_shard_ = -1;
  // Scratch buffers reused across windows (hot path: no per-window
  // allocation).
  std::vector<Cycles> earliest_;
  std::vector<Cycles> horizons_;
  std::vector<size_t> active_;
  // Sorted transactions awaiting release. A drain runs only the prefix
  // whose `when` precedes every pending event (the release floor) — under
  // adaptive horizons a shard that stopped early may still post
  // earlier-keyed transactions in a later window. Conservative boundaries
  // always release everything.
  std::vector<Txn> held_txns_;
  // Set while DrainTransactions runs released bodies; Insert() lowers
  // drain_floor_ when a body schedules an event below it.
  bool draining_ = false;
  Cycles drain_floor_ = 0;
  uint64_t windows_run_ = 0;
  uint64_t parallel_windows_ = 0;
  Cycles window_cycles_ = 0;       // sum of window lengths (horizon - T)
  uint64_t txns_drained_ = 0;      // mailbox transactions run at drains
  uint64_t max_mailbox_depth_ = 0;  // largest single drain batch
};

}  // namespace escort

#endif  // SRC_SIM_EVENT_QUEUE_H_

#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/sim/metrics.h"
#include "src/sim/parallel.h"

namespace escort {

// ---- serial queue ----------------------------------------------------------

EventQueue::EventId EventQueue::ScheduleAt(Cycles when, Callback fn) {
  if (when < now_) {
    when = now_;
  }
  EventId id = ledger_.Append();
  heap_.push(Event{when, next_seq_++, id, std::move(fn)});
  ++live_count_;
  return id;
}

bool EventQueue::Cancel(EventId id) {
  if (!ledger_.Mark(id)) {
    return false;
  }
  if (live_count_ > 0) {
    --live_count_;
  }
  return true;
}

void EventQueue::SkipCancelled() const {
  while (!heap_.empty() && ledger_.IsConsumed(heap_.top().id)) {
    heap_.pop();
  }
}

bool EventQueue::TimerFirst(TimerKey* tk) const {
  if (wheel_ == nullptr || !wheel_->PeekDue(tk)) {
    return false;
  }
  if (heap_.empty()) {
    return true;
  }
  const Event& top = heap_.top();
  if (tk->when != top.when) {
    return tk->when < top.when;
  }
  return tk->seq < top.seq;
}

bool EventQueue::Step() {
  SkipCancelled();
  TimerKey tk;
  if (TimerFirst(&tk)) {
    uint32_t exec_stream;
    TimerKey key;
    TimerWheel::Callback fn = wheel_->PopDue(&key, &exec_stream);
    now_ = key.when;
    ++fired_count_;
    MetricRecord(timer_series_, 0, key.when, -1);
    fn();
    return true;
  }
  if (heap_.empty()) {
    return false;
  }
  // Move the callback out before popping so the event can reschedule itself.
  Event ev = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  ledger_.Mark(ev.id);  // mark consumed so Cancel() on a fired id fails
  --live_count_;
  now_ = ev.when;
  ++fired_count_;
  ev.fn();
  return true;
}

void EventQueue::RunUntil(Cycles deadline) {
  Cycles when;
  while (PeekNext(&when) && when <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void EventQueue::RunToCompletion() {
  while (Step()) {
  }
}

bool EventQueue::PeekNext(Cycles* when) const {
  SkipCancelled();
  TimerKey tk;
  bool have_timer = wheel_ != nullptr && wheel_->PeekDue(&tk);
  if (heap_.empty()) {
    if (!have_timer) {
      return false;
    }
    *when = tk.when;
    return true;
  }
  *when = have_timer && tk.when < heap_.top().when ? tk.when : heap_.top().when;
  return true;
}

EventQueue::TimerId EventQueue::ScheduleTimerAt(Cycles when, Callback fn) {
  if (when < now_) {
    when = now_;
  }
  if (!use_timer_wheel_) {
    return ScheduleAt(when, std::move(fn)) | kTimerHeapBit;
  }
  if (wheel_ == nullptr) {
    wheel_ = std::make_unique<TimerWheel>();
  }
  // One sequence number from the same global FIFO counter ScheduleAt uses:
  // timers and events interleave exactly as if both lived in the heap.
  TimerKey key{when, 0, next_seq_++, 0};
  TimerRef ref = wheel_->Arm(key, 0, std::move(fn));
  MetricRecord(timer_series_, 0, now_, 1);
  return (static_cast<TimerId>(ref.index) << 32) | ref.gen;
}

bool EventQueue::CancelTimer(TimerId id) {
  if ((id & kTimerHeapBit) != 0) {
    return Cancel(id & ~kTimerHeapBit);
  }
  if (wheel_ == nullptr) {
    return false;
  }
  const bool cancelled = wheel_->Cancel(TimerRef{
      static_cast<uint32_t>((id >> 32) & 0xffffff), static_cast<uint32_t>(id)});
  if (cancelled) {
    MetricRecord(timer_series_, 0, now_, -1);
  }
  return cancelled;
}

void EventQueue::AttachMetrics(MetricsRegistry* m) {
  timer_series_ =
      m == nullptr ? nullptr
                   : ESCORT_METRIC_SHARDED(m, "sim.timers_armed",
                                           "timer-wheel resident timers", 1);
}

EventQueue::TimerWheelStats EventQueue::timer_stats() const {
  TimerWheelStats stats;
  if (wheel_ != nullptr) {
    stats.armed = wheel_->armed();
    stats.high_water = wheel_->high_water();
    stats.capacity = wheel_->capacity();
    stats.bytes_reserved = wheel_->bytes_reserved();
  }
  return stats;
}

// ---- sharded queue ---------------------------------------------------------

namespace {

// Execution context of the event (or sequenced transaction) currently
// running on this thread. Owned per worker; `owner` distinguishes nested
// queues (a test may drive several). Allowed in src/sim/ by EL010: this is
// part of the parallel execution machinery, invisible to simulation code.
struct ExecContext {
  const ShardedEventQueue* owner = nullptr;
  EventQueue::StreamId stream = 0;  // context whose code is running
  Cycles now = 0;                   // that context's local clock
  bool sequenced = false;           // inside a PostSequenced body
  uint64_t seq = 0;                 // the transaction's sequence number
  uint32_t next_minor = 0;          // minor index for the txn's children
};

thread_local ExecContext tls_exec;

}  // namespace

ShardedEventQueue::ShardedEventQueue(int shards, Cycles lookahead, bool adaptive)
    : lookahead_(lookahead), adaptive_(adaptive) {
  if (shards < 1) {
    shards = 1;
  }
  if (shards > 64) {
    shards = 64;
  }
  shards_.resize(static_cast<size_t>(shards));
  streams_.push_back(Stream{0, 0});  // stream 0: server / kernel / main context
  earliest_.reserve(shards_.size());
  horizons_.reserve(shards_.size());
  active_.reserve(shards_.size());
  if (shards > 1) {
    // The gang's body is bound exactly once: window dispatches carry only a
    // shard index through an atomic slot, never a fresh closure.
    gang_ = std::make_unique<ShardGang>(shards - 1, [this](size_t s) { RunShardWindow(s); });
  }
}

ShardedEventQueue::~ShardedEventQueue() = default;

Cycles ShardedEventQueue::now() const {
  if (tls_exec.owner == this) {
    return tls_exec.now;
  }
  return now_floor_;
}

const Cycles& ShardedEventQueue::now_ref() const { return shards_[0].clock; }

EventQueue::StreamId ShardedEventQueue::NewStream(int shard) {
  // Streams may only be created at serial points (testbed construction).
  StreamId id = static_cast<StreamId>(streams_.size());
  int home = shard % static_cast<int>(shards_.size());
  if (home < 0) {
    home = 0;
  }
  streams_.push_back(Stream{home, 0});
  return id;
}

EventQueue::StreamId ShardedEventQueue::current_stream() const {
  if (tls_exec.owner == this) {
    return tls_exec.stream;
  }
  return main_stream_;
}

EventQueue::StreamId ShardedEventQueue::SwapCurrentStream(StreamId stream) {
  StreamId prev = main_stream_;
  main_stream_ = stream;
  return prev;
}

void ShardedEventQueue::NoteInsert(size_t shard, Cycles when) {
  if (inline_window_shard_ >= 0 && shard != static_cast<size_t>(inline_window_shard_)) {
    // Cross-shard insert while a window runs inline: the running shard must
    // not advance to the new event's time or any later wire transaction it
    // posts would overtake the insert's own. A no-op under the default
    // conservative horizon (deliveries land at >= horizon); only adaptive
    // windows can be shrunk by it.
    Shard& running = shards_[static_cast<size_t>(inline_window_shard_)];
    if (when < running.window_cap) {
      running.window_cap = when;
    }
  }
  if (draining_ && when < drain_floor_) {
    // A transaction body just scheduled a pending event below the release
    // floor: later-keyed transactions must wait for it (see
    // DrainTransactions).
    drain_floor_ = when;
  }
}

EventQueue::EventId ShardedEventQueue::Insert(size_t shard, Key key, StreamId exec,
                                              Callback fn, bool child) {
  NoteInsert(shard, key.when);
  Shard& sh = shards_[shard];
  // Tripwire for the window-cap proofs: an insert below the target
  // shard's executed position would run in its past and silently break
  // the shard-count-independent total order.
  assert(key.when >= sh.clock && "insert below target shard's clock");
  uint32_t slot;
  if (!sh.free_slots.empty()) {
    slot = sh.free_slots.back();
    sh.free_slots.pop_back();
  } else {
    if (sh.slots.size() > kSlotMask) {
      throw std::length_error("sharded event queue: more than 2^26 pending events on a shard");
    }
    slot = static_cast<uint32_t>(sh.slots.size());
    sh.slots.emplace_back();
  }
  Slot& entry = sh.slots[slot];
  entry.fn = std::move(fn);
  entry.exec = exec;
  const Entry e{key, slot, entry.gen};
  // A transaction's children come in ascending key order (one `when` per
  // broadcast, rising minors), and consecutive transactions on a link
  // deliver at rising times: they append to the sorted run. A child that
  // would break the run's order, and every other insert, takes the heap.
  // Only children are admitted: one far-future event (a timer, the
  // sampler) at the tail would push every later child into the heap.
  if (child && (sh.run.empty() || sh.run.back().key < key)) {
    sh.run.push(e);
  } else {
    sh.heap.push(e);
  }
  return (static_cast<EventId>(shard) << kShardShift) |
         (static_cast<EventId>(entry.gen & kGenMask) << kSlotBits) | slot;
}

EventQueue::EventId ShardedEventQueue::ScheduleAt(Cycles when, Callback fn) {
  ExecContext* ctx = (tls_exec.owner == this) ? &tls_exec : nullptr;
  Cycles base = ctx != nullptr ? ctx->now : now_floor_;
  if (when < base) {
    when = base;
  }
  if (ctx != nullptr && ctx->sequenced) {
    // Children of a sequenced transaction reuse its (stream, seq) and are
    // ordered by minor index — byte-identical keys at any shard count.
    Key key{when, ctx->stream, ctx->seq, ++ctx->next_minor};
    return Insert(static_cast<size_t>(streams_[ctx->stream].shard), key, ctx->stream,
                  std::move(fn), /*child=*/true);
  }
  StreamId s = ctx != nullptr ? ctx->stream : main_stream_;
  Key key{when, s, streams_[s].next_seq++, 0};
  return Insert(static_cast<size_t>(streams_[s].shard), key, s, std::move(fn),
                /*child=*/false);
}

EventQueue::EventId ShardedEventQueue::ScheduleAtFrom(StreamId exec_stream, Cycles when,
                                                      Callback fn) {
  ExecContext* ctx = (tls_exec.owner == this) ? &tls_exec : nullptr;
  Cycles base = ctx != nullptr ? ctx->now : now_floor_;
  if (when < base) {
    when = base;
  }
  const bool child = ctx != nullptr && ctx->sequenced;
  Key key;
  if (child) {
    key = Key{when, ctx->stream, ctx->seq, ++ctx->next_minor};
  } else {
    StreamId ks = ctx != nullptr ? ctx->stream : main_stream_;
    key = Key{when, ks, streams_[ks].next_seq++, 0};
  }
  // The event lands on the *executing* stream's home shard: its callback
  // runs as that stream's action. Cross-shard inserts happen only at
  // serial points (transaction drains, single-shard windows).
  return Insert(static_cast<size_t>(streams_[exec_stream].shard), key, exec_stream,
                std::move(fn), child);
}

bool ShardedEventQueue::Cancel(EventId id) {
  size_t shard = static_cast<size_t>(id >> kShardShift);
  if (shard >= shards_.size()) {
    return false;
  }
  Shard& sh = shards_[shard];
  const uint32_t slot = static_cast<uint32_t>(id & kSlotMask);
  const uint64_t gen = (id >> kSlotBits) & kGenMask;
  if (slot >= sh.slots.size() || (sh.slots[slot].gen & kGenMask) != gen) {
    return false;  // fired, cancelled, or never issued
  }
  // The callback is destroyed only after the slot is back on the freelist:
  // its captures may reenter the queue.
  Callback dropped = std::move(sh.slots[slot].fn);
  sh.Release(slot);
  return true;
}

ShardedEventQueue::Head ShardedEventQueue::PeekShard(size_t s, Key* key) const {
  const Shard& sh = shards_[s];
  while (!sh.heap.empty() && sh.Stale(sh.heap.top())) {
    sh.heap.pop();
  }
  while (!sh.run.empty() && sh.Stale(sh.run.front())) {
    sh.run.pop();
  }
  // Keys are unique, so the minimum of the three heads is strict and the
  // fire order is the heap-only order.
  Head head = Head::kNone;
  if (!sh.heap.empty()) {
    *key = sh.heap.top().key;
    head = Head::kHeap;
  }
  if (!sh.run.empty() && (head == Head::kNone || sh.run.front().key < *key)) {
    *key = sh.run.front().key;
    head = Head::kRun;
  }
  TimerKey tk;
  if (sh.wheel != nullptr && sh.wheel->PeekDue(&tk)) {
    Key wk(tk.when, tk.stream, tk.seq, tk.minor);
    if (head == Head::kNone || wk < *key) {
      *key = wk;
      return Head::kTimer;
    }
  }
  return head;
}

ShardedEventQueue::Head ShardedEventQueue::GlobalPeek(size_t* shard, Key* key) const {
  Head found = Head::kNone;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Key k;
    Head head = PeekShard(s, &k);
    if (head == Head::kNone) {
      continue;
    }
    if (found == Head::kNone || k < *key) {
      found = head;
      *shard = s;
      *key = k;
    }
  }
  return found;
}

void ShardedEventQueue::ExecuteTop(size_t s, Head head) {
  Shard& sh = shards_[s];
  if (head == Head::kTimer) {
    TimerKey tk;
    uint32_t exec_stream = 0;
    TimerWheel::Callback fn = sh.wheel->PopDue(&tk, &exec_stream);
    ++sh.fired;
    sh.clock = tk.when;
    MetricRecord(timer_series_, static_cast<uint32_t>(s), tk.when, -1);
    ExecContext saved = tls_exec;
    tls_exec = ExecContext{this, static_cast<StreamId>(exec_stream), tk.when, false, 0, 0};
    fn();
    tls_exec = saved;
    return;
  }
  const Entry top = head == Head::kRun ? sh.run.pop() : sh.heap.pop();
  // Move the callback out and free the slot before running it: the
  // callback may schedule (growing the slot table) or cancel its own id,
  // which must already fail.
  Slot& slot = sh.slots[top.slot];
  Callback fn = std::move(slot.fn);
  const StreamId exec = slot.exec;
  sh.Release(top.slot);
  ++sh.fired;
  sh.clock = top.key.when;
  ExecContext saved = tls_exec;
  tls_exec = ExecContext{this, exec, top.key.when, false, 0, 0};
  fn();
  tls_exec = saved;
}

void ShardedEventQueue::RunShardWindow(size_t s) {
  Shard& sh = shards_[s];
  Key k;
  uint64_t fired_before = sh.fired;
  // window_cap can shrink while the loop runs (a posted send self-caps, an
  // inline cross-shard insert caps the running shard) — re-read every
  // iteration.
  for (Head head = PeekShard(s, &k);
       head != Head::kNone && k.when < sh.window_horizon && k.when < sh.window_cap;
       head = PeekShard(s, &k)) {
    ExecuteTop(s, head);
  }
  if (sh.fired != fired_before) {
    ++sh.windows_active;
  }
}

void ShardedEventQueue::RunTxn(Txn& txn) {
  ExecContext saved = tls_exec;
  tls_exec = ExecContext{this, txn.stream, txn.when, true, txn.seq, 0};
  txn.fn(txn.when);
  tls_exec = saved;
}

void ShardedEventQueue::DrainTransactions() {
  // A serial point: no worker is running, so txns_ needs no lock here.
  if (!txns_.empty()) {
    if (txns_.size() > max_mailbox_depth_) {
      max_mailbox_depth_ = txns_.size();
    }
    held_txns_.insert(held_txns_.end(), std::make_move_iterator(txns_.begin()),
                      std::make_move_iterator(txns_.end()));
    txns_.clear();
    // Key order, which depends only on the total event order and so is
    // the same at any shard count. It is not the post order: within one
    // window, a lower stream's body posted later at the same time runs
    // first (seqs are monotonic per stream only). Keys are unique — every
    // transaction consumes its own seq from its stream (PostSequenced) —
    // so an unstable sort gives the same order without stable_sort's
    // temporary buffer.
    if (held_txns_.size() > 1) {
      std::sort(held_txns_.begin(), held_txns_.end(), [](const Txn& a, const Txn& b) {
        if (a.when != b.when) return a.when < b.when;
        if (a.stream != b.stream) return a.stream < b.stream;
        return a.seq < b.seq;
      });
    }
  }
  if (held_txns_.empty()) {
    return;
  }
  // Release floor: a transaction at time w may run only once no shard has a
  // pending event with when <= w — such an event could still post an
  // earlier-keyed transaction, and the global order must match the serial
  // one. A conservative window executes everything below t_min + lookahead,
  // so its boundary always releases the whole buffer (legacy behavior);
  // only adaptive windows, whose shards stop at staggered points, hold
  // transactions back. The floor shrinks while bodies run: a released body
  // inserts future events (deliveries at >= w + lookahead) that newly
  // bound the transactions behind it (see Insert).
  Cycles floor = kNoEvent;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Key k;
    if (PeekShard(s, &k) != Head::kNone && k.when < floor) {
      floor = k.when;
    }
  }
  drain_floor_ = floor;
  draining_ = true;
  size_t released = 0;
  while (released < held_txns_.size() && held_txns_[released].when < drain_floor_) {
    RunTxn(held_txns_[released]);
    ++released;
  }
  draining_ = false;
  txns_drained_ += released;
  if (released > 0) {
    held_txns_.erase(held_txns_.begin(),
                     held_txns_.begin() + static_cast<ptrdiff_t>(released));
  }
}

void ShardedEventQueue::PostSequenced(SequencedFn fn) {
  ExecContext* ctx = (tls_exec.owner == this) ? &tls_exec : nullptr;
  StreamId stream = ctx != nullptr ? ctx->stream : main_stream_;
  Cycles when = ctx != nullptr ? ctx->now : now_floor_;
  // Exactly one sequence number per transaction, consumed at post time, so
  // the transaction's key does not depend on when the body runs.
  uint64_t seq = streams_[stream].next_seq++;
  if (in_parallel_window_ || inline_window_shard_ >= 0) {
    // Self-cap: the deposited body runs at a window boundary and may
    // insert back onto this shard at >= when + lookahead (the minimum
    // delivery latency), so this shard must not run past that point.
    // Other shards are already bounded by their horizons (<= when +
    // lookahead) in this window, and by the held-transaction cap
    // afterwards (see RunUntil). A no-op for the default conservative
    // horizon; only adaptive windows can be shrunk by it. The cap covers
    // the posting shard even when the frame's destination lives
    // elsewhere: consequences of the send (a reply, a timer the receiver
    // arms) can reach back here two hops later, and nothing else bounds
    // this shard until the delivery is actually inserted.
    int own = streams_[stream].shard;
    Cycles step = lookahead_ > 0 ? lookahead_ : 1;
    Cycles cap = when > kNoEvent - step ? kNoEvent : when + step;
    Shard& own_shard = shards_[static_cast<size_t>(own)];
    if (cap < own_shard.window_cap) {
      own_shard.window_cap = cap;
    }
    // Only parallel-window workers deposit concurrently.
    std::unique_lock<std::mutex> lock(txn_mu_, std::defer_lock);
    if (in_parallel_window_) {
      lock.lock();
    }
    txns_.push_back(Txn{when, stream, seq, std::move(fn)});
    return;
  }
  Txn t{when, stream, seq, std::move(fn)};
  RunTxn(t);
}

bool ShardedEventQueue::Step() {
  DrainTransactions();
  size_t s;
  Key k;
  Head head = GlobalPeek(&s, &k);
  if (head == Head::kNone) {
    return false;
  }
  ExecuteTop(s, head);
  now_floor_ = k.when;
  // Keep the stream-0 shard clock monotonic for now_ref() observers even
  // when the event ran elsewhere.
  if (shards_[0].clock < now_floor_) {
    shards_[0].clock = now_floor_;
  }
  return true;
}

void ShardedEventQueue::ComputeHorizons(const std::vector<Cycles>& earliest, Cycles lookahead,
                                        Cycles deadline, bool adaptive,
                                        std::vector<Cycles>* horizons) {
  Cycles step = lookahead > 0 ? lookahead : 1;
  size_t n = earliest.size();
  horizons->assign(n, 0);
  // Windows execute events with when < H, so H may reach deadline + 1.
  Cycles cap = deadline >= kNoEvent - 1 ? kNoEvent : deadline + 1;
  Cycles t_min = kNoEvent;
  for (Cycles e : earliest) {
    if (e < t_min) {
      t_min = e;
    }
  }
  if (t_min == kNoEvent) {
    return;  // all shards empty: no window to bound
  }
  if (!adaptive) {
    // Classic conservative window: every shard shares H = T + lookahead.
    Cycles h = t_min > kNoEvent - step ? kNoEvent : t_min + step;
    if (h > cap) {
      h = cap;
    }
    for (size_t i = 0; i < n; ++i) {
      (*horizons)[i] = h;
    }
    return;
  }
  // Adaptive: shard r may run until the earliest instant any *other*
  // shard's pending work could land a cross-shard effect on it (a send
  // posted at t delivers at >= t + lookahead). Empty shards are excluded —
  // they gain events only from running shards, which self-cap at insert or
  // post time (see Insert/PostSequenced). O(n^2) over <= 64 shards.
  for (size_t r = 0; r < n; ++r) {
    Cycles h = cap;
    for (size_t s = 0; s < n; ++s) {
      if (s == r || earliest[s] == kNoEvent) {
        continue;
      }
      Cycles hs = earliest[s] > kNoEvent - step ? kNoEvent : earliest[s] + step;
      if (hs < h) {
        h = hs;
      }
    }
    (*horizons)[r] = h;
  }
}

void ShardedEventQueue::RunUntil(Cycles deadline) {
  if (gang_ == nullptr && !adaptive_) {
    RunSerialWindows(deadline);
  } else {
    RunWindows(deadline);
  }
  if (now_floor_ < deadline) {
    now_floor_ = deadline;
  }
  for (Shard& sh : shards_) {
    if (sh.clock < deadline) {
      sh.clock = deadline;
    }
  }
}

void ShardedEventQueue::RunSerialWindows(Cycles deadline) {
  // One shard, conservative horizon: RunWindows would find T = the shard's
  // earliest event, give it H = min(T + L, deadline + 1), run it alone and
  // inline, and drain. This loop does exactly that, so the events, the
  // drains and every ShardProfile counter come out the same; it only
  // skips the per-window vectors and peeks once per event. The window cap
  // needs no check: a deposit caps the shard at its post time + L >=
  // T + L >= H, and no other shard can insert. No transaction is ever
  // held: every deposit was posted below H, the window ran every event
  // below H, and bodies schedule at >= post time + L >= H, so the release
  // floor is above them all. And H = min(T + L, deadline + 1) > T, so
  // every window fires.
  Shard& sh = shards_[0];
  const Cycles step = lookahead_ > 0 ? lookahead_ : 1;
  const Cycles cap = deadline >= kNoEvent - 1 ? kNoEvent : deadline + 1;
  Key k;
  Head head = PeekShard(0, &k);
  for (;;) {
    if (!txns_.empty()) {
      DrainTransactions();
      assert(held_txns_.empty() && "a transaction body scheduled below post time + lookahead");
      head = PeekShard(0, &k);
    }
    if (head == Head::kNone || k.when > deadline) {
      break;
    }
    const Cycles t = k.when;
    Cycles h = t > kNoEvent - step ? kNoEvent : t + step;
    if (h > cap) {
      h = cap;
    }
    ++windows_run_;
    ++sh.windows_woken;
    ++sh.windows_active;
    window_cycles_ += h - t;
    inline_window_shard_ = 0;
    do {
      ExecuteTop(0, head);
      head = PeekShard(0, &k);
    } while (head != Head::kNone && k.when < h);
    inline_window_shard_ = -1;
  }
}

void ShardedEventQueue::RunWindows(Cycles deadline) {
  for (;;) {
    DrainTransactions();
    // One pass collects each shard's earliest pending time (compacting
    // cancelled heads as a side effect) and the global minimum.
    earliest_.assign(shards_.size(), kNoEvent);
    Cycles t_min = kNoEvent;
    for (size_t i = 0; i < shards_.size(); ++i) {
      Key key;
      if (PeekShard(i, &key) != Head::kNone) {
        earliest_[i] = key.when;
        if (key.when < t_min) {
          t_min = key.when;
        }
      }
    }
    if (t_min == kNoEvent || t_min > deadline) {
      break;
    }
    ++windows_run_;
    // Conservative window: shard r runs events with when < min(H_r, cap_r).
    // Non-adaptive, every H_r is T + lookahead: cross-stream effects posted
    // inside the window land at >= T + lookahead, so shards cannot miss
    // each other's messages. Adaptive H_r extends to the earliest instant
    // another shard's pending work could reach r; caps shrink at runtime
    // when this shard's own sends bound it (see DESIGN.md §6.8).
    ComputeHorizons(earliest_, lookahead_, deadline, adaptive_, &horizons_);
    if (!held_txns_.empty()) {
      // A held transaction at time w will, once released, insert events
      // at >= w + lookahead — and its consequences can propagate to any
      // shard from there — so no shard may run past w + lookahead until
      // it is released. (Conservative boundaries release every
      // transaction, so the buffer is only ever non-empty here under
      // adaptive horizons.) held_txns_ is sorted ascending: the oldest
      // transaction gives the binding cap.
      Cycles step = lookahead_ > 0 ? lookahead_ : 1;
      Cycles w = held_txns_.front().when;
      Cycles held_cap = w > kNoEvent - step ? kNoEvent : w + step;
      for (size_t i = 0; i < shards_.size(); ++i) {
        if (horizons_[i] > held_cap) {
          horizons_[i] = held_cap;
        }
      }
    }
    active_.clear();
    Cycles h_max = t_min;
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (earliest_[i] == kNoEvent || earliest_[i] >= horizons_[i]) {
        continue;
      }
      active_.push_back(i);
      Shard& sh = shards_[i];
      ++sh.windows_woken;
      sh.window_horizon = horizons_[i];
      sh.window_cap = kNoEvent;
      if (horizons_[i] > h_max) {
        h_max = horizons_[i];
      }
    }
    window_cycles_ += h_max - t_min;
    if (gang_ != nullptr && active_.size() > 1) {
      ++parallel_windows_;
      in_parallel_window_ = true;
      std::string error = gang_->Run(active_);
      in_parallel_window_ = false;
      if (!error.empty()) {
        throw std::runtime_error("sharded event queue worker failed: " + error);
      }
    } else {
      // At most one shard can be active here (multi-shard queues always
      // have a gang), so inline cross-shard inserts are safe and captured
      // by inline_window_shard_.
      for (size_t i : active_) {
        inline_window_shard_ = static_cast<int>(i);
        RunShardWindow(i);
        inline_window_shard_ = -1;
      }
    }
  }
}

void ShardedEventQueue::RunToCompletion() {
  while (Step()) {
  }
}

bool ShardedEventQueue::PeekNext(Cycles* when) const {
  size_t s;
  Key k;
  if (GlobalPeek(&s, &k) == Head::kNone) {
    return false;
  }
  *when = k.when;
  return true;
}

bool ShardedEventQueue::empty() const { return pending() == 0; }

size_t ShardedEventQueue::pending() const {
  size_t n = 0;
  for (const Shard& sh : shards_) {
    n += sh.live();
    if (sh.wheel != nullptr) {
      n += sh.wheel->armed();
    }
  }
  return n;
}

EventQueue::TimerId ShardedEventQueue::ScheduleTimerAt(Cycles when, Callback fn) {
  if (!use_timer_wheel_) {
    return ScheduleAt(when, std::move(fn)) | kTimerHeapBit;
  }
  // Key assignment is byte-identical to ScheduleAt: one seq (or minor) is
  // consumed per call in the same order, so the wheel path and the heap
  // path — and any shard count — produce the same total order.
  ExecContext* ctx = (tls_exec.owner == this) ? &tls_exec : nullptr;
  Cycles base = ctx != nullptr ? ctx->now : now_floor_;
  if (when < base) {
    when = base;
  }
  Key key;
  StreamId exec;
  if (ctx != nullptr && ctx->sequenced) {
    key = Key{when, ctx->stream, ctx->seq, ++ctx->next_minor};
    exec = ctx->stream;
  } else {
    exec = ctx != nullptr ? ctx->stream : main_stream_;
    key = Key{when, exec, streams_[exec].next_seq++, 0};
  }
  size_t shard = static_cast<size_t>(streams_[exec].shard);
  NoteInsert(shard, key.when);
  Shard& sh = shards_[shard];
  assert(key.when >= sh.clock && "timer armed below target shard's clock");
  if (sh.wheel == nullptr) {
    sh.wheel = std::make_unique<TimerWheel>();
  }
  TimerRef ref = sh.wheel->Arm(TimerKey{key.when, key.stream, key.seq, key.minor},
                               static_cast<uint32_t>(exec), std::move(fn));
  // Occupancy +1 at the arm time. `base` is the caller's event time (or
  // the serial-point floor) — partition-independent, so the merged series
  // is identical at any shard count.
  MetricRecord(timer_series_, static_cast<uint32_t>(shard), base, 1);
  return (static_cast<TimerId>(shard) << kShardShift) |
         (static_cast<TimerId>(ref.index) << 32) | ref.gen;
}

bool ShardedEventQueue::CancelTimer(TimerId id) {
  if ((id & kTimerHeapBit) != 0) {
    return Cancel(id & ~kTimerHeapBit);
  }
  size_t shard = static_cast<size_t>(id >> kShardShift);
  if (shard >= shards_.size()) {
    return false;
  }
  Shard& sh = shards_[shard];
  if (sh.wheel == nullptr) {
    return false;
  }
  const bool cancelled =
      sh.wheel->Cancel(TimerRef{static_cast<uint32_t>((id >> 32) & 0xffffff),
                                static_cast<uint32_t>(id)});
  if (cancelled) {
    ExecContext* ctx = (tls_exec.owner == this) ? &tls_exec : nullptr;
    MetricRecord(timer_series_, static_cast<uint32_t>(shard),
                 ctx != nullptr ? ctx->now : now_floor_, -1);
  }
  return cancelled;
}

void ShardedEventQueue::AttachMetrics(MetricsRegistry* m) {
  timer_series_ = m == nullptr
                      ? nullptr
                      : ESCORT_METRIC_SHARDED(m, "sim.timers_armed",
                                              "timer-wheel resident timers",
                                              static_cast<uint32_t>(shards_.size()));
}

EventQueue::TimerWheelStats ShardedEventQueue::timer_stats() const {
  TimerWheelStats st;
  for (const Shard& sh : shards_) {
    if (sh.wheel != nullptr) {
      st.armed += sh.wheel->armed();
      st.high_water += sh.wheel->high_water();
      st.capacity += sh.wheel->capacity();
      st.bytes_reserved += sh.wheel->bytes_reserved();
    }
  }
  return st;
}

ShardProfile ShardedEventQueue::Profile() const {
  ShardProfile p;
  p.shards = shard_count();
  p.lookahead = lookahead_;
  p.windows_run = windows_run_;
  p.parallel_windows = parallel_windows_;
  p.window_cycles = window_cycles_;
  p.txns_drained = txns_drained_;
  p.max_mailbox_depth = max_mailbox_depth_;
  p.per_shard.reserve(shards_.size());
  for (const Shard& sh : shards_) {
    ShardProfile::PerShard entry;
    entry.events_fired = sh.fired;
    entry.windows_woken = sh.windows_woken;
    entry.windows_active = sh.windows_active;
    p.per_shard.push_back(entry);
  }
  return p;
}

uint64_t ShardedEventQueue::fired_count() const {
  uint64_t n = 0;
  for (const Shard& sh : shards_) {
    n += sh.fired;
  }
  return n;
}

ShardedEventQueue::RunStats ShardedEventQueue::run_stats() const {
  RunStats st;
  for (const Shard& sh : shards_) {
    st.size += sh.run.size();
    st.high_water += sh.run.high_water();
    st.capacity += sh.run.capacity();
  }
  return st;
}

size_t ShardedEventQueue::consumed_slot_count() const {
  size_t n = 0;
  for (const Shard& sh : shards_) {
    n += sh.slots.size();
  }
  return n;
}

}  // namespace escort

#include "src/kernel/scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace escort {

namespace {

// Removes `t` from a deque, returning true if it was present.
bool EraseFrom(std::deque<Thread*>& dq, Thread* t) {
  auto it = std::find(dq.begin(), dq.end(), t);
  if (it == dq.end()) {
    return false;
  }
  dq.erase(it);
  return true;
}

}  // namespace

// --- PriorityScheduler -----------------------------------------------------

void PriorityScheduler::Enqueue(Thread* t) { ready_[t->owner()->sched().priority].push_back(t); }

Thread* PriorityScheduler::Dequeue() {
  for (auto it = ready_.begin(); it != ready_.end();) {
    if (it->second.empty()) {
      it = ready_.erase(it);
      continue;
    }
    Thread* t = it->second.front();
    it->second.pop_front();
    return t;
  }
  return nullptr;
}

void PriorityScheduler::Remove(Thread* t) {
  for (auto& [prio, dq] : ready_) {
    if (EraseFrom(dq, t)) {
      return;
    }
  }
}

bool PriorityScheduler::Empty() const {
  for (const auto& [prio, dq] : ready_) {
    if (!dq.empty()) {
      return false;
    }
  }
  return true;
}

// --- ProportionalShareScheduler ---------------------------------------------

void ProportionalShareScheduler::Enqueue(Thread* t) {
  assert(t->ready_index_ == Thread::kNotReady && "thread enqueued twice");
  SchedState& s = t->owner()->sched();
  if (!s.pass_initialized || s.pass < global_pass_) {
    // A newly arriving (or long-sleeping) owner joins at the current virtual
    // time so it cannot starve others by hoarding credit.
    s.pass = global_pass_;
    s.pass_initialized = true;
  }
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Entry{s.pass, next_seq_++, t});
}

Thread* ProportionalShareScheduler::Dequeue() {
  if (heap_.empty()) {
    return nullptr;
  }
  // Stored keys are lower bounds of the current ones, so once the root's
  // key is current no other entry can precede it.
  for (;;) {
    const uint64_t pass = heap_[0].thread->owner()->sched().pass;
    if (pass == heap_[0].pass) {
      break;
    }
    assert(pass > heap_[0].pass && "owner pass moved backwards while queued");
    Entry root = heap_[0];
    root.pass = pass;
    SiftDown(0, root);
  }
  Thread* t = heap_[0].thread;
  EraseAt(0);
  // The global virtual time is the *minimum* pass in the system (the pass
  // of the owner just selected). Arriving owners join at this time: they
  // cannot hoard credit from a sleep, and a high-ticket owner that blocks
  // briefly keeps its low pass — its reservation survives re-joining.
  global_pass_ = t->owner()->sched().pass;
  return t;
}

void ProportionalShareScheduler::Remove(Thread* t) {
  if (t->ready_index_ != Thread::kNotReady) {
    EraseAt(t->ready_index_);
  }
}

void ProportionalShareScheduler::AccountRun(Thread* t, Cycles used) {
  SchedState& s = t->owner()->sched();
  uint64_t tickets = s.tickets == 0 ? 1 : s.tickets;
  // Pass advances inversely to the ticket allocation; the scale keeps
  // precision for small runs against large ticket counts.
  s.pass += used * kStrideScale / tickets;
}

void ProportionalShareScheduler::Place(size_t i, const Entry& e) {
  heap_[i] = e;
  e.thread->ready_index_ = i;
}

void ProportionalShareScheduler::SiftUp(size_t i, Entry e) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(e, heap_[parent])) {
      break;
    }
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, e);
}

void ProportionalShareScheduler::SiftDown(size_t i, Entry e) {
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], e)) {
      break;
    }
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, e);
}

void ProportionalShareScheduler::EraseAt(size_t i) {
  heap_[i].thread->ready_index_ = Thread::kNotReady;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) {
    return;
  }
  if (i > 0 && Before(last, heap_[(i - 1) / 2])) {
    SiftUp(i, last);
  } else {
    SiftDown(i, last);
  }
}

// --- EdfScheduler -------------------------------------------------------------

void EdfScheduler::Enqueue(Thread* t) {
  SchedState& s = t->owner()->sched();
  if (s.period != 0 && s.next_deadline <= *now_) {
    s.next_deadline = *now_ + s.period;
  }
  ready_.push_back(t);
}

Thread* EdfScheduler::Dequeue() {
  if (ready_.empty()) {
    return nullptr;
  }
  auto best = ready_.end();
  Cycles best_deadline = std::numeric_limits<Cycles>::max();
  for (auto it = ready_.begin(); it != ready_.end(); ++it) {
    const SchedState& s = (*it)->owner()->sched();
    Cycles deadline =
        s.period == 0 ? std::numeric_limits<Cycles>::max() - 1 : s.next_deadline;
    if (deadline < best_deadline) {
      best_deadline = deadline;
      best = it;
    }
  }
  if (best == ready_.end()) {
    best = ready_.begin();
  }
  Thread* t = *best;
  ready_.erase(best);
  return t;
}

void EdfScheduler::Remove(Thread* t) { EraseFrom(ready_, t); }

bool EdfScheduler::Empty() const { return ready_.empty(); }

}  // namespace escort

// Thread schedulers. Escort configures the scheduler at build time (paper
// §3.2): a priority scheduler, a proportional-share scheduler (used for the
// QoS experiments), and an EDF scheduler.
//
// Scheduling state lives in the *owner* (paper Figure 4): all threads of an
// owner share its priority / ticket allocation / deadline.

#ifndef SRC_KERNEL_SCHEDULER_H_
#define SRC_KERNEL_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/thread.h"

namespace escort {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Adds a ready thread. A thread is enqueued at most once.
  virtual void Enqueue(Thread* t) = 0;

  // Removes and returns the next thread to run; nullptr if none ready.
  virtual Thread* Dequeue() = 0;

  // Removes a thread wherever it is queued (blocking / destruction).
  virtual void Remove(Thread* t) = 0;

  // Charges `used` cycles of CPU to the owner for scheduling purposes
  // (proportional share advances the owner's pass; others ignore it).
  virtual void AccountRun(Thread* t, Cycles used) = 0;

  virtual bool Empty() const = 0;
  virtual const char* name() const = 0;
};

// Strict priority with FIFO order within a priority level.
// Owner::sched().priority — larger value runs first.
class PriorityScheduler : public Scheduler {
 public:
  void Enqueue(Thread* t) override;
  Thread* Dequeue() override;
  void Remove(Thread* t) override;
  void AccountRun(Thread* /*t*/, Cycles /*used*/) override {}
  bool Empty() const override;
  const char* name() const override { return "priority"; }

 private:
  // priority -> FIFO of threads; iterate from the highest priority.
  std::map<int, std::deque<Thread*>, std::greater<int>> ready_;
};

// Stride (proportional-share) scheduling. Each owner holds tickets; the
// owner with the smallest pass value runs next and its pass advances in
// inverse proportion to its tickets. This is the scheduler that sustains the
// 1 MB/s QoS stream in Figures 10 and 11.
//
// The ready queue is an indexed binary min-heap ordered by (pass, seq):
// `seq` counts enqueues, so ties go to the earliest arrival, and each thread
// records its heap slot so Remove is O(log n). An entry keeps the owner's
// pass from when it was last keyed. Pass only grows (AccountRun adds to it,
// Enqueue raises it to the global pass), so a stored key can only be low;
// Dequeue re-keys the root until its key is current, which makes it the true
// (pass, seq) minimum.
class ProportionalShareScheduler : public Scheduler {
 public:
  void Enqueue(Thread* t) override;
  Thread* Dequeue() override;
  void Remove(Thread* t) override;
  void AccountRun(Thread* t, Cycles used) override;
  bool Empty() const override { return heap_.empty(); }
  const char* name() const override { return "proportional-share"; }

 private:
  static constexpr uint64_t kStrideScale = 1 << 20;

  struct Entry {
    uint64_t pass;  // owner's pass when keyed; never above the current one
    uint64_t seq;   // enqueue order: the tie-break
    Thread* thread;
  };

  static bool Before(const Entry& a, const Entry& b) {
    return a.pass < b.pass || (a.pass == b.pass && a.seq < b.seq);
  }
  // Stores `e` at slot `i` and records the slot in its thread.
  void Place(size_t i, const Entry& e);
  void SiftUp(size_t i, Entry e);
  void SiftDown(size_t i, Entry e);
  // Removes the entry at slot `i`, refilling the hole from the back.
  void EraseAt(size_t i);

  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
  uint64_t global_pass_ = 0;
};

// Earliest-deadline-first. Owners with period 0 run as best-effort backlog
// behind all deadline owners.
class EdfScheduler : public Scheduler {
 public:
  explicit EdfScheduler(const Cycles* now) : now_(now) {}

  void Enqueue(Thread* t) override;
  Thread* Dequeue() override;
  void Remove(Thread* t) override;
  void AccountRun(Thread* /*t*/, Cycles /*used*/) override {}
  bool Empty() const override;
  const char* name() const override { return "edf"; }

 private:
  const Cycles* now_;
  std::deque<Thread*> ready_;
};

}  // namespace escort

#endif  // SRC_KERNEL_SCHEDULER_H_

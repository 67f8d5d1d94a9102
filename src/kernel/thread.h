// Escort threads (paper §3.2).
//
// Threads are owned by a path or a protection domain; their lifetime is
// bounded by their owner's. Threads are *non-preemptive*: they run until
// they yield, block, or exhaust their work, with one exception — a thread
// can be preempted if it is destroyed immediately afterwards, which is how
// the kernel deals with runaway threads (the owner of a removed thread is
// itself removed).
//
// Execution model: a thread carries a queue of WorkItems. Each item is a
// unit of computation with a cycle cost, the protection domain it executes
// in, and an action to run when the cycles have been consumed. The action
// may push further items (continuations), send packets, block on a
// semaphore, and so on. Crossing into a different protection domain than the
// thread is currently in incurs the domain-crossing cost and requires an
// entry in the owning path's allowed-crossings map, mirroring the
// trap-mediated crossings of the real system. Threads owned by a path keep
// one stack per domain they have entered (charged to the owner).

#ifndef SRC_KERNEL_THREAD_H_
#define SRC_KERNEL_THREAD_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <list>
#include <set>
#include <string>

#include "src/kernel/owner.h"
#include "src/sim/types.h"

namespace escort {

class Kernel;
class ProportionalShareScheduler;
class Semaphore;

struct WorkItem {
  Cycles cost = 0;
  PdId pd = kKernelDomain;
  std::function<void()> fn;
  // True if the thread yields the CPU after this item (resets the runaway
  // clock and lets the scheduler pick another thread).
  bool yields = false;
};

enum class ThreadState { kReady, kRunning, kBlocked, kDead };

// Threads are reclaimed when their owner is destroyed (pathKill), so a
// Thread* must never be captured into a deferred closure (EA001).
// ESCORT_KERNEL_LIFETIME
class Thread {
 public:
  Thread(Kernel* kernel, Owner* owner, std::string name);
  ~Thread();

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  Owner* owner() const { return owner_; }
  const std::string& name() const { return name_; }
  uint64_t tid() const { return tid_; }
  ThreadState state() const { return state_; }
  PdId current_pd() const { return current_pd_; }

  // Enqueues work. If the thread was idle it becomes runnable.
  //
  // The action runs later, when the kernel dispatches the item: the EA001
  // deferred-capture contract applies (no raw kernel-object pointers in
  // the closure — the PR 3 retransmit bug was exactly this, a TcpPcb*
  // captured into a Push closure; capture a value key and revalidate).
  // ESCORT_DEFERRED_API
  void Push(WorkItem item);
  // ESCORT_DEFERRED_API
  void Push(Cycles cost, PdId pd, std::function<void()> fn, bool yields = false);

  bool HasWork() const { return !queue_.empty(); }
  size_t QueueDepth() const { return queue_.size(); }

  // Cycles this thread has run since it last yielded (runaway detection).
  Cycles run_since_yield() const { return run_since_yield_; }

  // Set of domains this thread has entered (a stack is kept for each).
  const std::set<PdId>& stacks() const { return stacks_; }

 private:
  friend class Kernel;
  friend class ProportionalShareScheduler;
  friend class Semaphore;

  static constexpr size_t kNotReady = std::numeric_limits<size_t>::max();

  Kernel* const kernel_;
  Owner* const owner_;
  const std::string name_;
  const uint64_t tid_;

  std::deque<WorkItem> queue_;
  ThreadState state_ = ThreadState::kBlocked;  // blocked-empty until pushed
  PdId current_pd_ = kKernelDomain;
  Cycles run_since_yield_ = 0;
  std::set<PdId> stacks_;
  Semaphore* blocked_on_ = nullptr;
  std::list<Thread*>::iterator owner_link_;
  // Slot in the proportional-share ready heap; kNotReady when not queued.
  size_t ready_index_ = kNotReady;
};

}  // namespace escort

#endif  // SRC_KERNEL_THREAD_H_

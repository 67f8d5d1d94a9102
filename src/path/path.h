// The path abstraction (paper §2.2, §3.1): a logical channel through the
// module graph over which I/O data flows. A path is an Owner — the entity
// all per-connection resources are charged to — and encapsulates (1) the
// sequence of stages applied to data moving through the system and (2) the
// threads scheduled to execute it.
//
// Mirrors the paper's Path structure: owner state, the hash of allowed
// protection-domain crossings, the stage list, four source/sink queues, a
// thread pool, and a reference count that delays pathDestroy (but never
// pathKill).

#ifndef SRC_PATH_PATH_H_
#define SRC_PATH_PATH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/elib/bounded_queue.h"
#include "src/elib/message.h"
#include "src/kernel/kernel.h"
#include "src/path/attribute.h"
#include "src/path/module.h"

namespace escort {

class PathManager;

// One module's contribution to a path. Stages die with their path (they
// live in Path::stages_), so a Stage* is as dangerous to capture into a
// deferred closure as the Path* itself — capture the stage index and
// re-derive through a revalidated path.
// ESCORT_KERNEL_LIFETIME
class Stage {
 public:
  Module* module = nullptr;
  Path* path = nullptr;
  int index = 0;
  PdId pd = kKernelDomain;
  std::unique_ptr<StageState> state;
  std::function<void(Path*, Stage*)> destructor;

  template <typename T>
  T* state_as() {
    return static_cast<T*>(state.get());
  }
};

// Paths are reclaimed at arbitrary times by pathKill (runaway detection,
// policy action) and lazily freed at the next demux safe point; a raw
// Path* in a deferred closure is a use-after-free waiting for an attack
// burst. Capture path->id() and revalidate via PathManager::FindLive.
// ESCORT_KERNEL_LIFETIME
class Path : public Owner {
 public:
  // The four path-end queues (paper Figure 6: Queues[4]).
  enum QueueId { kSourceIn = 0, kSourceOut = 1, kSinkIn = 2, kSinkOut = 3 };

  Path(Kernel* kernel, PathManager* manager, std::string name);
  ~Path() override;

  Kernel* kernel() const { return kernel_; }
  PathManager* manager() const { return manager_; }

  // --- Stages -----------------------------------------------------------
  const std::vector<std::unique_ptr<Stage>>& stages() const { return stages_; }
  Stage* stage(size_t index) { return index < stages_.size() ? stages_[index].get() : nullptr; }
  Stage* AppendStage(Module* module, std::unique_ptr<StageState> state,
                     std::function<void(Path*, Stage*)> destructor);
  // Finds the first stage contributed by `module`; nullptr if none.
  Stage* StageOf(const Module* module);
  // The protection domains of all stages, in order (the read-mapping set
  // for messages that travel the whole path).
  std::vector<PdId> StageDomains() const;
  // Termination domains (paper §3.3): "to allow paths to traverse multiple
  // security levels, it is possible to designate certain protection domains
  // along a path as termination domains — this limits the read mapping to
  // the domains along the path from the current protection domain up to and
  // including the termination domain." Returns the stage domains from the
  // stage at `from_index` through the first stage in `termination` (the
  // whole path if `termination` never occurs).
  std::vector<PdId> StageDomainsUpTo(size_t from_index, PdId termination) const;
  // Number of distinct protection domains the path crosses.
  int DistinctDomainCount() const;

  // --- Allowed protection-domain crossings ---------------------------------
  void AllowCrossing(PdId from, PdId to);
  bool CrossingAllowed(PdId from, PdId to) const override;

  // --- Attributes (invariants fixed at creation) -----------------------------
  Attributes attrs;

  // --- Thread pool -------------------------------------------------------------
  void SpawnThreads(size_t count);
  Thread* GrabThread();

  // --- Delivery ------------------------------------------------------------------
  // Schedules `msg` to be processed by the stage at `index`, moving in
  // `dir`, as a work item on one of the path's threads. `extra_cost` is
  // prepended to the item (e.g. interrupt + demux cycles for the first hop).
  // Every hop yields by default: Escort module code yields at stage
  // boundaries, which is what makes the runaway budget (CPU *without*
  // yielding) selective for misbehaving code.
  void DeliverAt(size_t index, Direction dir, Message msg, Cycles extra_cost = 0,
                 bool yields = true);
  // Continue from a stage to its neighbour.
  void ForwardUp(const Stage& from, Message msg);
  void ForwardDown(const Stage& from, Message msg);

  // Total work items currently queued across the pool (overload signal; the
  // demux engine drops frames for backlogged paths like a full NIC ring).
  size_t PendingItems() const;

  // --- End queues -------------------------------------------------------------------
  BoundedQueue<Message>& queue(QueueId q) { return queues_[q]; }

  // --- Kernel-side cleanup ---------------------------------------------------
  // Callbacks run on ANY reclamation — pathDestroy and pathKill alike —
  // before the owner's resources are torn down. This is for *kernel-
  // maintained* registrations (demux map entries) that must never dangle;
  // module destructors, by contrast, are skipped by pathKill.
  void AddKernelCleanup(std::function<void()> fn) { kernel_cleanups_.push_back(std::move(fn)); }

  // --- Reference count (delays pathDestroy, never pathKill) ---------------------------
  void Ref() { ++refcnt_; }
  void Unref();
  uint64_t refcnt() const { return refcnt_; }
  bool destroy_pending() const { return destroy_pending_; }

  // --- Stats ------------------------------------------------------------------------------
  uint64_t messages_processed = 0;

 private:
  friend class PathManager;

  Kernel* const kernel_;
  PathManager* const manager_;
  std::vector<std::unique_ptr<Stage>> stages_;
  // Allowed crossings as (lower, higher) domain pairs, each once: a path
  // crosses a handful of domains, so a scan beats a node container.
  std::vector<std::pair<PdId, PdId>> allowed_crossings_;
  std::vector<Thread*> pool_;
  size_t next_thread_ = 0;
  BoundedQueue<Message> queues_[4];
  std::vector<std::function<void()>> kernel_cleanups_;
  uint64_t refcnt_ = 0;
  bool destroy_pending_ = false;
};

}  // namespace escort

#endif  // SRC_PATH_PATH_H_

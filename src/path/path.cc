#include "src/path/path.h"

#include <algorithm>

#include "src/path/path_manager.h"

namespace escort {

Path::Path(Kernel* kernel, PathManager* manager, std::string name)
    : Owner(OwnerType::kPath, kernel->NextOwnerId(), std::move(name)),
      kernel_(kernel),
      manager_(manager) {}

Path::~Path() = default;

Stage* Path::AppendStage(Module* module, std::unique_ptr<StageState> state,
                         std::function<void(Path*, Stage*)> destructor) {
  auto stage = std::make_unique<Stage>();
  stage->module = module;
  stage->path = this;
  stage->index = static_cast<int>(stages_.size());
  stage->pd = module->pd();
  stage->state = std::move(state);
  stage->destructor = std::move(destructor);
  stages_.push_back(std::move(stage));
  return stages_.back().get();
}

Stage* Path::StageOf(const Module* module) {
  for (auto& stage : stages_) {
    if (stage->module == module) {
      return stage.get();
    }
  }
  return nullptr;
}

std::vector<PdId> Path::StageDomains() const {
  std::vector<PdId> pds;
  pds.reserve(stages_.size());
  for (const auto& stage : stages_) {
    pds.push_back(stage->pd);
  }
  return pds;
}

std::vector<PdId> Path::StageDomainsUpTo(size_t from_index, PdId termination) const {
  std::vector<PdId> pds;
  for (size_t i = from_index; i < stages_.size(); ++i) {
    pds.push_back(stages_[i]->pd);
    if (stages_[i]->pd == termination) {
      break;
    }
  }
  return pds;
}

int Path::DistinctDomainCount() const {
  int count = 0;
  for (size_t i = 0; i < stages_.size(); ++i) {
    const PdId pd = stages_[i]->pd;
    bool seen = false;
    for (size_t j = 0; j < i && !seen; ++j) {
      seen = stages_[j]->pd == pd;
    }
    count += seen ? 0 : 1;
  }
  return count;
}

namespace {

std::pair<PdId, PdId> CrossingKey(PdId a, PdId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

void Path::AllowCrossing(PdId from, PdId to) {
  const std::pair<PdId, PdId> key = CrossingKey(from, to);
  if (std::find(allowed_crossings_.begin(), allowed_crossings_.end(), key) ==
      allowed_crossings_.end()) {
    allowed_crossings_.push_back(key);
  }
}

bool Path::CrossingAllowed(PdId from, PdId to) const {
  if (from == to || from == kKernelDomain || to == kKernelDomain) {
    return true;
  }
  return std::find(allowed_crossings_.begin(), allowed_crossings_.end(),
                   CrossingKey(from, to)) != allowed_crossings_.end();
}

void Path::SpawnThreads(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    pool_.push_back(kernel_->CreateThread(this, name() + " worker" + std::to_string(i)));
  }
}

Thread* Path::GrabThread() {
  if (pool_.empty()) {
    SpawnThreads(1);
  }
  Thread* t = pool_[next_thread_ % pool_.size()];
  next_thread_ += 1;
  return t;
}

void Path::DeliverAt(size_t index, Direction dir, Message msg, Cycles extra_cost, bool yields) {
  Stage* stage = this->stage(index);
  if (stage == nullptr || destroyed()) {
    return;
  }
  Thread* t = GrabThread();
  Module* module = stage->module;
  t->Push(extra_cost, stage->pd,
          // NOLINT-EA001(queue is path-owned: pathKill drains the thread pool before reclaim, the closure cannot outlive this path)
          [this, stage, module, msg = std::move(msg), dir]() mutable {
            ++messages_processed;
            module->Process(*stage, std::move(msg), dir);
          },
          yields);
}

void Path::ForwardUp(const Stage& from, Message msg) {
  DeliverAt(static_cast<size_t>(from.index) + 1, Direction::kUp, std::move(msg));
}

void Path::ForwardDown(const Stage& from, Message msg) {
  if (from.index == 0) {
    return;
  }
  DeliverAt(static_cast<size_t>(from.index) - 1, Direction::kDown, std::move(msg));
}

size_t Path::PendingItems() const {
  size_t total = 0;
  for (const Thread* t : pool_) {
    total += t->QueueDepth();
  }
  return total;
}

void Path::Unref() {
  if (refcnt_ > 0) {
    --refcnt_;
  }
  if (refcnt_ == 0 && destroy_pending_ && manager_ != nullptr) {
    manager_->Destroy(this);
  }
}

}  // namespace escort

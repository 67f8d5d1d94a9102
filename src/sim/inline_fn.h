// InlineFn: a move-only callable with inline storage, the callback type of
// the event queue, its mailbox transactions and the timer wheel.
//
// Every scheduled event, wheel timer and sequenced transaction carries one
// callback. As std::function, any capture above 16 bytes (a frame buffer,
// a TCP header) cost a heap allocation per event, and the callable had to
// be copyable, so a frame could only be captured by copy. InlineFn keeps a
// capture of up to kCapacity bytes (alignment <= 8, nothrow-movable) in its
// own storage — inside the queue's slot, wheel entry or transaction — and
// puts anything larger on the heap, where a move is a pointer copy.
//
// Semantics follow std::function where they overlap: a default or nullptr
// InlineFn is empty and compares equal to nullptr; constructing from an
// empty std::function or a null function pointer gives an empty InlineFn;
// operator() is const and may run a mutable target. It differs in being
// move-only (captures may be move-only, e.g. std::unique_ptr) and in that
// calling an empty InlineFn is a precondition violation, not an exception.

#ifndef SRC_SIM_INLINE_FN_H_
#define SRC_SIM_INLINE_FN_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace escort {

template <class Signature>
class InlineFn;

template <class R, class... Args>
class InlineFn<R(Args...)> {
 public:
  // Sized for the shared link's closures: SharedLink::Send's transaction
  // body {this, src, dst, frame} is 48 bytes with padding, a unicast
  // delivery {endpoint, frame} 32.
  static constexpr size_t kCapacity = 48;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {
    if (IsNull(f)) {
      return;
    }
    if constexpr (kFitsInline<D>) {
      if constexpr (std::is_trivially_copyable_v<D> && sizeof(D) < kCapacity) {
        // Moves memcpy the whole buffer: give the unused tail a value.
        std::memset(storage_ + sizeof(D), 0, kCapacity - sizeof(D));
      }
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* target = std::make_unique<D>(std::forward<F>(f)).release();
      std::memset(storage_, 0, kCapacity);
      std::memcpy(storage_, &target, sizeof(target));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { Take(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      Take(other);
    }
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  R operator()(Args... args) const {
    assert(ops_ != nullptr && "call of an empty InlineFn");
    return ops_->invoke(const_cast<unsigned char*>(storage_), std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // True when the target lives in this object's own storage (false when
  // empty or heap-allocated). Test and benchmark hook.
  bool stored_inline() const noexcept { return ops_ != nullptr && ops_->is_inline; }

  // C++20 rewrites nullptr == f, f != nullptr and nullptr != f from this.
  friend bool operator==(const InlineFn& f, std::nullptr_t) noexcept { return !f; }

 private:
  // Per-target-type operations. A null `relocate` means the stored bytes
  // can be moved with memcpy (trivially copyable inline targets, and the
  // pointer of a heap target); a null `destroy` means nothing to destroy.
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool is_inline;
  };

  template <class D>
  static constexpr bool kFitsInline = sizeof(D) <= kCapacity && alignof(D) <= alignof(void*) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <class T>
  struct IsStdFunction : std::false_type {};
  template <class S>
  struct IsStdFunction<std::function<S>> : std::true_type {};

  template <class F>
  static bool IsNull(const F& f) {
    if constexpr (std::is_pointer_v<F> || IsStdFunction<F>::value) {
      return !f;
    } else {
      return false;
    }
  }

  // std::invoke_r: a void signature discards the target's result.
  template <class D>
  static R Invoke(D& target, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(target, std::forward<Args>(args)...);
    } else {
      return std::invoke(target, std::forward<Args>(args)...);
    }
  }

  template <class D>
  static D* InlineTarget(void* storage) {
    return std::launder(static_cast<D*>(storage));
  }
  template <class D>
  static D* HeapTarget(void* storage) {
    D* target;
    std::memcpy(&target, storage, sizeof(target));
    return target;
  }

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* s, Args&&... args) -> R {
        return Invoke(*InlineTarget<D>(s), std::forward<Args>(args)...);
      },
      std::is_trivially_copyable_v<D> ? nullptr
                                       : +[](void* from, void* to) noexcept {
                                           D* src = InlineTarget<D>(from);
                                           ::new (to) D(std::move(*src));
                                           src->~D();
                                         },
      std::is_trivially_destructible_v<D> ? nullptr
                                          : +[](void* s) noexcept { InlineTarget<D>(s)->~D(); },
      true};

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* s, Args&&... args) -> R {
        return Invoke(*HeapTarget<D>(s), std::forward<Args>(args)...);
      },
      nullptr, +[](void* s) noexcept { std::unique_ptr<D> owned(HeapTarget<D>(s)); }, false};

  void Take(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      return;
    }
    if (ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kCapacity);
    } else {
      ops_->relocate(other.storage_, storage_);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char storage_[kCapacity];
};

}  // namespace escort

#endif  // SRC_SIM_INLINE_FN_H_

#ifndef FARVIEW_COMMON_INLINE_FN_H_
#define FARVIEW_COMMON_INLINE_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace farview {

/// Move-only callable wrapper with small-buffer-optimized storage, built for
/// the simulator hot path: scheduling an event must not allocate.
///
/// `std::function` on libstdc++ only inlines captures up to two pointers, so
/// nearly every event the network/memory stacks schedule (`this` + a state
/// pointer + a few scalars) lands on the heap — one allocation per simulated
/// event, which dominates the event-core cost at fig12/ext_faults scale
/// (DESIGN.md §8). `InlineFn` stores captures up to `kInlineBytes` in place
/// and only falls back to the heap for oversized or throwing-move callables
/// (rare, per-request control-path lambdas). The threshold is pinned by
/// common_test.cc InlineFnTest.StorageThreshold.
///
/// Differences from `std::function`, deliberate:
///  - move-only (events are scheduled once; copyability is what forces
///    `std::function` to heap-allocate shared state),
///  - no allocator/target-type introspection,
///  - invoking an empty `InlineFn` is undefined (the engine FV_CHECKs at
///    schedule time instead of paying a branch per invoke).
template <typename Signature>
class InlineFn;

/// Specialization for function signatures — the only usable form (the
/// primary template above is declared but never defined).
template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  /// Inline capture capacity. 64 B holds `this` + a shared-state pointer +
  /// six scalars, which covers every per-packet/per-burst callback in the
  /// tree; raising it grows every queued event by the same amount.
  static constexpr std::size_t kInlineBytes = 64;

  /// True when a callable of type `F` will be stored inline (no heap
  /// allocation). Nothrow-movability is required so queue reshuffles stay
  /// noexcept.
  template <typename F>
  static constexpr bool StoredInline() {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  InlineFn() noexcept = default;
  /// Zeroes the buffer: moving an empty `InlineFn` never reads it, but
  /// under the sanitizers GCC cannot prove the move's `ops_` guard and sees
  /// `Relocate` copy indeterminate bytes (`Submit(..., nullptr)` is the
  /// common case). Only empty callbacks pay; moves pay nothing.
  // NOLINTNEXTLINE(runtime/explicit)
  InlineFn(std::nullptr_t) noexcept : storage_{} {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f)  // NOLINT(runtime/explicit)
      : ops_(&Model<D>::kOps) {
    Model<D>::Construct(storage_, std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      Relocate(other);
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        Relocate(other);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  InlineFn& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  /// Invokes the held callable. Undefined when empty.
  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  friend bool operator==(const InlineFn& f, std::nullptr_t) noexcept {
    return f.ops_ == nullptr;
  }
  friend bool operator!=(const InlineFn& f, std::nullptr_t) noexcept {
    return f.ops_ != nullptr;
  }

  /// True when the held callable lives in the inline buffer (for the SBO
  /// threshold tests and the alloc-counter regression).
  bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->stored_inline;
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-constructs dst from src and destroys src (both point at
    /// `kInlineBytes` of storage) — or nullptr when a raw buffer copy is the
    /// same thing (trivially copyable capture, or the heap model's owning
    /// pointer). The nullptr fast path matters: queued events are moved
    /// several times (into the calendar bucket, during the bucket sort, out
    /// at pop), and an indirect call per move dominated the event core.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Destroys the callable, or nullptr when destruction is a no-op.
    void (*destroy)(void*) noexcept;
    bool stored_inline;
  };

  template <typename D, bool kInline = StoredInline<D>()>
  struct Model;

  /// Inline model: the callable is constructed directly in the buffer.
  template <typename D>
  struct Model<D, true> {
    template <typename F>
    static void Construct(void* s, F&& f) {
      ::new (s) D(std::forward<F>(f));
    }
    static R Invoke(void* s, Args&&... args) {
      return (*std::launder(reinterpret_cast<D*>(s)))(
          std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) noexcept {
      D* from = std::launder(reinterpret_cast<D*>(src));
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void Destroy(void* s) noexcept {
      std::launder(reinterpret_cast<D*>(s))->~D();
    }
    static constexpr Ops kOps = {
        &Invoke,
        std::is_trivially_copyable_v<D> ? nullptr : &Relocate,
        std::is_trivially_destructible_v<D> ? nullptr : &Destroy,
        /*stored_inline=*/true};
  };

  /// Heap model: the buffer holds a single owning pointer to the callable.
  template <typename D>
  struct Model<D, false> {
    template <typename F>
    static void Construct(void* s, F&& f) {
      D* p = new D(std::forward<F>(f));
      std::memcpy(s, &p, sizeof(p));
    }
    static D* Get(void* s) {
      D* p;
      std::memcpy(&p, s, sizeof(p));
      return p;
    }
    static R Invoke(void* s, Args&&... args) {
      return (*Get(s))(std::forward<Args>(args)...);
    }
    static void Destroy(void* s) noexcept { delete Get(s); }
    /// Relocation is a pointer copy, covered by the raw-buffer fast path.
    static constexpr Ops kOps = {&Invoke, /*relocate=*/nullptr, &Destroy,
                                 /*stored_inline=*/false};
  };

  /// Moves `other`'s callable into our storage; `ops_` must already equal
  /// `other.ops_`. The memcpy covers the whole buffer regardless of capture
  /// size — a fixed-size inline copy beats a length branch.
  void Relocate(InlineFn& other) noexcept {
    if (ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace farview

#endif  // FARVIEW_COMMON_INLINE_FN_H_

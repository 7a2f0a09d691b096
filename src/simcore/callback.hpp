#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cbs::sim {

/// Move-only, type-erased callable with small-buffer optimisation.
///
/// `UniqueFunction<void()>` (aliased as `UniqueCallback`) is the closure
/// type of `ClosureEvents`, the event target of never-forked drivers; no
/// simulator component stores a callable, since each reports to an owner
/// interface it takes at construction. `std::function` was measurably wrong
/// for the job: it must be copyable (so captured state is constrained or
/// heap-shared), its small-buffer is implementation-defined, and every
/// heap-spilled callback costs an allocation. `UniqueFunction` guarantees:
///
///  - callables up to `kInlineSize` bytes (and nothrow-movable) live
///    inline — zero allocations to store them;
///  - larger callables take exactly one allocation, owned uniquely;
///  - moves are `noexcept` pointer/buffer relocations, with no exception
///    paths.
///
/// Invoking an empty callback is undefined (assert-guarded at the call
/// sites); test with `explicit operator bool`.
template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Sized to hold the common hook and driver captures (`this` or a few
  /// references plus a couple of values) with headroom; tune only with
  /// benchmark evidence (bench/micro_perf.cpp: BM_LinkAllocationStorm).
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  UniqueFunction() noexcept = default;
  UniqueFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor): drop-in
                           // replacement for std::function at schedule sites
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vt_ = &kInlineVTable<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &kHeapVTable<Fn>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->relocate(storage_, other.storage_);
      other.vt_ = nullptr;
    }
  }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        vt_->relocate(storage_, other.storage_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  R operator()(Args... args) {
    return vt_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void* obj, Args&&... args);
    /// Move-constructs into `dst` and destroys the source representation.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* obj) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static Fn* inline_object(void* obj) noexcept {
    return std::launder(reinterpret_cast<Fn*>(obj));
  }
  template <typename Fn>
  static Fn** heap_slot(void* obj) noexcept {
    return std::launder(reinterpret_cast<Fn**>(obj));
  }

  template <typename Fn>
  static constexpr VTable kInlineVTable{
      [](void* obj, Args&&... args) -> R {
        return (*inline_object<Fn>(obj))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*inline_object<Fn>(src)));
        inline_object<Fn>(src)->~Fn();
      },
      [](void* obj) noexcept { inline_object<Fn>(obj)->~Fn(); }};

  template <typename Fn>
  static constexpr VTable kHeapVTable{
      [](void* obj, Args&&... args) -> R {
        return (**heap_slot<Fn>(obj))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*heap_slot<Fn>(src));
      },
      [](void* obj) noexcept { delete *heap_slot<Fn>(obj); }};

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const VTable* vt_ = nullptr;
};

/// The `void()` closure `ClosureEvents` runs.
using UniqueCallback = UniqueFunction<void()>;

}  // namespace cbs::sim

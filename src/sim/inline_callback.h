// InlineCallback: a fixed-capacity, move-only callable for the simulator
// fast path.
//
// std::function heap-allocates any capture larger than its tiny SBO, which
// put one malloc/free pair on every scheduled event. InlineCallback stores
// the callable in-place in a 48-byte buffer and has *no heap fallback*: a
// capture that does not fit is a compile error (static_assert), so the
// engine's allocation-free guarantee is enforced at every callsite rather
// than discovered in a profile. All simulator callsites capture at most a
// couple of pointers plus a std::function-sized continuation, which fits.
//
// Trivially relocatable captures — trivially copyable and trivially
// destructible, which covers the common `[this]` and `[this, gen]` — carry
// no manager at all (`manage_ == nullptr`): moving one is a fixed 48-byte
// memcpy and destroying one is a no-op, so relocating a callback (through
// Core::completions_, for instance) costs no indirect call.

#ifndef SRC_SIM_INLINE_CALLBACK_H_
#define SRC_SIM_INLINE_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace newtos {

class InlineCallback {
 public:
  // In-place capture budget. server.cc's restart continuation ([this, gen,
  // std::function]) is the largest simulator capture at 48 bytes.
  static constexpr size_t kCapacity = 48;

  InlineCallback() = default;
  InlineCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(fn));
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { Reset(); }

  // Replaces the held callable with `fn`, constructed straight into the
  // inline buffer (the event queue builds each event's callback in its slot
  // this way, with no intermediate InlineCallback to move).
  template <typename F>
  void Emplace(F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>, "callback must be callable as void()");
    static_assert(sizeof(D) <= kCapacity,
                  "callback capture exceeds InlineCallback's inline buffer: shrink the "
                  "capture (capture pointers, not values) — there is deliberately no "
                  "heap fallback on the simulator fast path");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "callback capture is over-aligned for the inline buffer");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "callback captures must be nothrow-movable (callbacks are relocated "
                  "through completion rings)");
    Reset();
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
    invoke_ = [](void* b) { (*std::launder(reinterpret_cast<D*>(b)))(); };
    if constexpr (std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>) {
      manage_ = nullptr;
    } else {
      manage_ = [](void* dst, void* src) {
        D* s = std::launder(reinterpret_cast<D*>(src));
        if (dst != nullptr) {
          ::new (dst) D(std::move(*s));
        }
        s->~D();
      };
    }
  }

  explicit operator bool() const { return invoke_ != nullptr; }
  void operator()() { invoke_(buf_); }

 private:
  // Moves the callable out of `other` (which becomes empty).
  void MoveFrom(InlineCallback& other) noexcept {
    if (other.invoke_ != nullptr) {
      if (other.manage_ == nullptr) {
        std::memcpy(buf_, other.buf_, kCapacity);
      } else {
        other.manage_(buf_, other.buf_);
      }
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (invoke_ != nullptr) {
      if (manage_ != nullptr) {
        manage_(nullptr, buf_);
      }
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  void (*invoke_)(void*) = nullptr;
  // manage_(dst, src): move-construct *dst from *src when dst != nullptr,
  // then destroy *src. With dst == nullptr it is a plain destroy. Null for
  // trivially relocatable captures (memcpy to move, nothing to destroy).
  void (*manage_)(void* dst, void* src) = nullptr;
};

}  // namespace newtos

#endif  // SRC_SIM_INLINE_CALLBACK_H_

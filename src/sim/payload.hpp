// sim::Payload — the type-erased body a transport carries from send() to
// the receiver's Envelope.
//
// It works like std::any, but a value of up to kInlineBytes lives inside the
// Payload itself: a core::Message (80 bytes) travels without a heap
// allocation, where std::any's small buffer (one pointer) sent every message
// to the heap. Larger values, or values whose move may throw, fall back to
// one heap allocation. The held type is identified by a per-type operations
// table, so lookups are one pointer compare and no RTTI. sim does not know
// core: any copyable type can ride.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dust::sim {

class Payload {
 public:
  static constexpr std::size_t kInlineBytes = 88;
  static constexpr std::size_t kInlineAlign = alignof(double);

  /// Whether a T is stored inline (no allocation on construction).
  template <typename T>
  static constexpr bool stores_inline =
      sizeof(T) <= kInlineBytes &&
      alignof(T) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<T>;

  Payload() noexcept = default;

  /// Implicit, like std::any: `send(from, to, Message{...})` just works.
  template <typename T, typename D = std::decay_t<T>,
            typename = std::enable_if_t<!std::is_same_v<D, Payload>>>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor)
    static_assert(std::is_copy_constructible_v<D>,
                  "Payload values must be copyable (envelopes are)");
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buffer_)) D(std::forward<T>(value));
    } else {
      heap_ = new D(std::forward<T>(value));
    }
    ops_ = &kOps<D>;
  }

  Payload(const Payload& other) {
    if (other.ops_ != nullptr) other.ops_->copy(other, *this);
  }
  Payload(Payload&& other) noexcept { take(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      Payload copy(other);
      reset();
      take(copy);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  ~Payload() { reset(); }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(*this);
    ops_ = nullptr;
  }

  /// The held T, or nullptr when the payload is empty or holds another type.
  template <typename T>
  [[nodiscard]] T* get_if() noexcept {
    using D = std::remove_cv_t<T>;
    return ops_ == &kOps<D> ? &held<D>(*this) : nullptr;
  }
  template <typename T>
  [[nodiscard]] const T* get_if() const noexcept {
    return const_cast<Payload*>(this)->get_if<T>();
  }

 private:
  struct Ops {
    void (*destroy)(Payload&) noexcept;
    /// Move `from`'s value into the empty `to`; `from` is left empty.
    void (*move)(Payload& from, Payload& to) noexcept;
    /// Copy `from`'s value into the empty `to`.
    void (*copy)(const Payload& from, Payload& to);
  };

  union {
    alignas(kInlineAlign) unsigned char buffer_[kInlineBytes];
    void* heap_;
  };
  const Ops* ops_ = nullptr;

  template <typename T>
  static T& held(Payload& p) noexcept {
    if constexpr (stores_inline<T>)
      return *std::launder(reinterpret_cast<T*>(p.buffer_));
    else
      return *static_cast<T*>(p.heap_);
  }
  template <typename T>
  static const T& held(const Payload& p) noexcept {
    return held<T>(const_cast<Payload&>(p));
  }

  /// One table per held type; its address is the type's identity.
  template <typename T>
  static constexpr Ops kOps{
      [](Payload& p) noexcept {
        if constexpr (stores_inline<T>)
          held<T>(p).~T();
        else
          delete static_cast<T*>(p.heap_);
      },
      [](Payload& from, Payload& to) noexcept {
        if constexpr (stores_inline<T>) {
          ::new (static_cast<void*>(to.buffer_)) T(std::move(held<T>(from)));
          held<T>(from).~T();
        } else {
          to.heap_ = from.heap_;
        }
        to.ops_ = from.ops_;
        from.ops_ = nullptr;
      },
      [](const Payload& from, Payload& to) {
        if constexpr (stores_inline<T>)
          ::new (static_cast<void*>(to.buffer_)) T(held<T>(from));
        else
          to.heap_ = new T(held<T>(from));
        to.ops_ = from.ops_;
      },
  };

  void take(Payload& other) noexcept {
    if (other.ops_ != nullptr) other.ops_->move(other, *this);
  }
};

}  // namespace dust::sim

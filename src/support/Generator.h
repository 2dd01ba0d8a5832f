//===- support/Generator.h - Coroutine generator ----------------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal C++20 coroutine generator. Workload kernels are written as
/// ordinary loops that `co_yield` one memory access at a time; the simulator
/// pulls from many generators to interleave threads without needing real
/// threads or full traces in memory.
///
/// Values are yielded by reference, as C++23's `std::generator` does: the
/// promise keeps the address of the `co_yield` operand, never a copy. The
/// operand (a named variable or a temporary) lives until the coroutine
/// resumes, so the reference value() returns stays valid until the next
/// call to next(). `T` needs neither a default constructor nor a copy or
/// move, and a yield costs one pointer store.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SUPPORT_GENERATOR_H
#define CHEETAH_SUPPORT_GENERATOR_H

#include "support/Assert.h"

#include <coroutine>
#include <memory>
#include <utility>

namespace cheetah {

/// A lazily-evaluated stream of values of type \p T produced by a coroutine.
///
/// The generator owns the coroutine frame and destroys it on destruction.
/// Typical pull-style consumption:
/// \code
///   Generator<int> G = makeInts();
///   while (G.next())
///     use(G.value());
/// \endcode
template <typename T> class Generator {
public:
  struct promise_type {
    /// The operand of the last `co_yield`, alive while the coroutine is
    /// suspended at it.
    const T *Current = nullptr;

    Generator get_return_object() {
      return Generator(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    std::suspend_always yield_value(const T &Value) noexcept {
      Current = std::addressof(Value);
      return {};
    }
    void return_void() noexcept {}
    void unhandled_exception() {
      CHEETAH_UNREACHABLE("exception escaped a Cheetah generator");
    }
  };

  Generator() = default;
  explicit Generator(std::coroutine_handle<promise_type> Handle)
      : Handle(Handle) {}

  Generator(Generator &&Other) noexcept
      : Handle(std::exchange(Other.Handle, nullptr)) {}
  Generator &operator=(Generator &&Other) noexcept {
    if (this == &Other)
      return *this;
    destroy();
    Handle = std::exchange(Other.Handle, nullptr);
    return *this;
  }

  Generator(const Generator &) = delete;
  Generator &operator=(const Generator &) = delete;

  ~Generator() { destroy(); }

  /// Advances the coroutine to the next `co_yield`.
  /// \returns true if a new value is available, false when exhausted.
  bool next() {
    if (!Handle || Handle.done())
      return false;
    Handle.resume();
    return !Handle.done();
  }

  /// The most recently yielded value: a reference to the `co_yield`
  /// operand itself, not a copy. Only valid after next() returned true, and
  /// only until the next call to next(): resuming the coroutine ends a
  /// temporary operand's life and may change or end a named one.
  const T &value() const {
    CHEETAH_ASSERT(Handle && !Handle.done(), "value() on exhausted generator");
    return *Handle.promise().Current;
  }

  /// \returns true if the generator holds a live, unfinished coroutine.
  bool live() const { return Handle && !Handle.done(); }

  /// \returns true if the generator holds any coroutine frame at all.
  explicit operator bool() const { return static_cast<bool>(Handle); }

private:
  void destroy() {
    if (Handle) {
      Handle.destroy();
      Handle = nullptr;
    }
  }

  std::coroutine_handle<promise_type> Handle;
};

} // namespace cheetah

#endif // CHEETAH_SUPPORT_GENERATOR_H

#pragma once

/// \file hook.hpp
/// The one install/pin/uninstall path behind every process-wide hook.
///
/// Low-level layers host instrumentation points for three hook interfaces:
/// fault sites (fault_hook.hpp), memory-access announcements
/// (access_hook.hpp) and scheduler events (trace_hook.hpp). Each interface
/// has its own event vocabulary, but all three share one lifetime problem:
/// a worker thread calls into a hook that a test or a bench installed and
/// will destroy. `HookSlot<Hook>`, instantiated once per interface, solves
/// it once (docs/observability.md, "Hook spine"):
///
///  - **Pin.** Every emission site reaches the hook through a
///    `HookSlot<Hook>::Pin`. With nothing installed, taking a pin is one
///    relaxed atomic load and a branch: no read-modify-write, fence, lock
///    or thread. With a hook installed, the pin increments the slot's pin
///    count, then re-loads the slot (both seq_cst); a null re-load drops
///    the pin again. Releasing is one `fetch_sub`.
///  - **Install.** `ScopedHook<Hook>` installs a hook for its lifetime and
///    throws `pe::Error` if the slot is taken: scopes of one kind never
///    nest.
///  - **Uninstall waits.** The scope's destructor clears the slot with a
///    seq_cst store and yields until no pin is held, so when it returns no
///    emitter is inside the hook and the hook may be destroyed. A thread
///    that holds a pin and uninstalls the same kind of hook would wait for
///    itself; it aborts with a message instead.
///
/// A pin covers one event, one chunk, one job copy or one loop. No site may
/// hold a pin while a worker parks idle, or uninstall would wait for the
/// next wake-up.

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "perfeng/common/error.hpp"

namespace pe {

template <typename Hook>
class ScopedHook;

/// The process-wide slot for one hook interface.
template <typename Hook>
class HookSlot {
 public:
  HookSlot() = delete;

  /// Access to the installed hook that keeps it installed until released;
  /// empty when no hook is installed. A pin is released by the thread that
  /// took it, so it can be neither copied nor moved.
  class Pin {
   public:
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() {
      if (hook_ != nullptr) release();
    }

    explicit operator bool() const noexcept { return hook_ != nullptr; }
    Hook* operator->() const noexcept { return hook_; }
    [[nodiscard]] Hook* get() const noexcept { return hook_; }

   private:
    friend class HookSlot;
    explicit Pin(Hook* hook) noexcept : hook_(hook) {}
    Hook* const hook_;
  };

  /// Pin the installed hook, if any.
  [[nodiscard]] static Pin pin() noexcept {
    // Relaxed: this load only decides whether to pin; the hook used is the
    // one the seq_cst re-load returns.
    if (hook_.load(std::memory_order_relaxed) == nullptr) return Pin(nullptr);
    pins_.fetch_add(1, std::memory_order_seq_cst);
    Hook* const hook = hook_.load(std::memory_order_seq_cst);
    if (hook == nullptr) {
      pins_.fetch_sub(1, std::memory_order_seq_cst);
      return Pin(nullptr);
    }
    ++held_here_;
    return Pin(hook);
  }

  /// The installed hook, for identity checks. Every hook method is
  /// non-const, so the hook itself is reachable only through a pin.
  [[nodiscard]] static const Hook* installed() noexcept {
    return hook_.load(std::memory_order_acquire);
  }

 private:
  friend class ScopedHook<Hook>;

  static void release() noexcept {
    --held_here_;
    pins_.fetch_sub(1, std::memory_order_seq_cst);
  }

  static void install(Hook& hook) {
    Hook* expected = nullptr;
    if (!hook_.compare_exchange_strong(expected, &hook,
                                       std::memory_order_seq_cst))
      throw Error("ScopedHook: a hook of this kind is already installed");
  }

  static void uninstall() noexcept {
    if (held_here_ != 0) {
      std::fputs(
          "ScopedHook: uninstalling a hook from a thread that holds a pin "
          "of it would wait for itself forever\n",
          stderr);
      std::abort();
    }
    hook_.store(nullptr, std::memory_order_seq_cst);
    // Every pin taken before the store above is counted in pins_; pins
    // taken after it re-load null and drop themselves.
    while (pins_.load(std::memory_order_seq_cst) != 0)
      std::this_thread::yield();
  }

  // Separate cache lines: every enabled emitter writes pins_, and the
  // first load of hook_ at every site should not miss because of it.
  alignas(64) static constinit inline std::atomic<Hook*> hook_{nullptr};
  alignas(64) static constinit inline std::atomic<std::size_t> pins_{0};
  /// Pins of this slot held by the calling thread.
  static constinit inline thread_local std::size_t held_here_ = 0;
};

/// Installs `hook` in its slot for the scope's lifetime. The caller keeps
/// ownership; the destructor returns only when no emitter is inside the
/// hook, so the hook may be destroyed right after the scope ends.
template <typename Hook>
class ScopedHook {
 public:
  explicit ScopedHook(Hook& hook) { HookSlot<Hook>::install(hook); }
  ~ScopedHook() { HookSlot<Hook>::uninstall(); }

  ScopedHook(const ScopedHook&) = delete;
  ScopedHook& operator=(const ScopedHook&) = delete;
};

}  // namespace pe

// Cooperative cancellation for in-flight requests.
//
// A CancellationToken is a cheap, copyable handle shared between the code
// that decides a request's fate (the server's deadline bookkeeping, a
// client hanging up) and the code doing the work (the engine's encode loop,
// the model's decode loop). The worker polls expired() at natural yield
// points — per decoded token, per module encode — and unwinds with
// pc::CancelledError when it returns true, so a past-deadline request stops
// burning compute instead of running to completion.
//
// A default-constructed token has no state and never expires; checking it
// is a null-pointer test, so the non-deadline serving path stays free.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

namespace pc {

class CancellationToken {
 public:
  CancellationToken() = default;

  // A token that expires when `deadline` passes (steady clock).
  static CancellationToken with_deadline(
      std::chrono::steady_clock::time_point deadline) {
    CancellationToken t;
    t.state_ = std::make_shared<State>();
    t.state_->has_deadline = true;
    t.state_->deadline = deadline;
    return t;
  }

  // A token that expires `ms` from now.
  static CancellationToken after_ms(double ms) {
    return with_deadline(std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double, std::milli>(ms)));
  }

  // A token that only expires when cancel() is called.
  static CancellationToken manual() {
    CancellationToken t;
    t.state_ = std::make_shared<State>();
    return t;
  }

  // Marks the token expired (idempotent; no-op on a stateless token).
  void cancel() const {
    if (state_ != nullptr) {
      state_->cancelled.store(true, std::memory_order_relaxed);
    }
  }

  // Polls the token. Once true, stays true (a passed deadline latches).
  bool expired() const {
    if (state_ == nullptr) return false;
    if (state_->cancelled.load(std::memory_order_relaxed)) return true;
    if (state_->has_deadline &&
        std::chrono::steady_clock::now() >= state_->deadline) {
      state_->cancelled.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
  };
  std::shared_ptr<State> state_;
};

}  // namespace pc

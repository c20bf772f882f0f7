// Request deadlines: the one way a request is cancelled.
//
// A Deadline is one steady-clock time point. The server installs a
// request's deadline thread-locally around its execution (Deadline::Scope,
// the same pattern as obs::TraceContext::Scope); thread handoffs carry it
// explicitly — snapshot current() before the hop, Scope it inside. Work is
// never interrupted from outside or abandoned: the runtime checks the
// deadline at fixed points and unwinds with DeadlineExceeded once it has
// passed.
//
//   - before each stage attempt (pipeline executor, retries included);
//   - in launch loops: the simulator's block loop and the native backend's
//     row-band loop skip their remaining iterations once expired, and the
//     caller throws after parallel_for returns (no exception crosses the
//     pool);
//   - sleeps on resilience::SystemClock (retry backoff, injected delays)
//     end early at the deadline but never throw; the next checkpoint does.
//
// Cancellation granularity is therefore one simulated block (interp), one
// row band (native) or one injected delay. Shared work — a KernelCache fill
// or JIT compile that other requests wait on — has no checkpoint and always
// runs to completion. An expired deadline is not a kernel failure: retry,
// the circuit breakers and both fallbacks let DeadlineExceeded pass.
#pragma once

#include <chrono>
#include <stdexcept>

namespace ispb {

/// Thrown at a checkpoint once the thread's installed deadline has passed.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("request deadline exceeded") {}
};

struct Deadline {
  using Clock = std::chrono::steady_clock;

  /// Expiry instant; time_point::max() means no deadline.
  Clock::time_point at = Clock::time_point::max();

  [[nodiscard]] bool has_value() const {
    return at != Clock::time_point::max();
  }
  /// Reads the clock only when a deadline is set.
  [[nodiscard]] bool expired() const {
    return has_value() && Clock::now() >= at;
  }
  /// Throws DeadlineExceeded once expired.
  void check() const {
    if (expired()) throw DeadlineExceeded();
  }

  /// This thread's installed deadline (none unless a Scope is active).
  [[nodiscard]] static Deadline current();

  /// RAII install/restore of the thread's deadline.
  class Scope {
   public:
    explicit Scope(Deadline deadline);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Clock::time_point prev_;
  };
};

}  // namespace ispb

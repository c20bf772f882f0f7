// Injectable time source for the resilience layer.
//
// Retry backoff, circuit-breaker cooldowns and injected delays all need a
// notion of "now" and "sleep" — but none of them may depend on the wall
// clock in tests (the determinism contract of the chaos harness is that the
// same FaultPlan seed produces the same firing sequence and the same
// counters with no wall-clock dependence). Every resilience component
// therefore takes a Clock*; production code passes SystemClock::instance()
// (steady_clock), tests pass a VirtualClock whose time only moves when the
// test advances it and whose sleep_ms() *is* the advance.
//
// A SystemClock sleep never outlasts the calling thread's request Deadline
// (common/deadline.hpp): it returns early at the deadline, without throwing,
// and the next deadline checkpoint unwinds the request. VirtualClock sleeps
// take no wall time and so ignore it, keeping chaos runs deterministic.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/deadline.hpp"
#include "common/types.hpp"

namespace ispb::resilience {

/// Abstract monotonic millisecond clock.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Milliseconds since an arbitrary fixed epoch (monotonic).
  [[nodiscard]] virtual u64 now_ms() const = 0;
  /// Blocks (or virtually advances) for `ms` milliseconds.
  virtual void sleep_ms(u64 ms) = 0;
};

/// Wall-clock implementation over std::chrono::steady_clock.
class SystemClock final : public Clock {
 public:
  [[nodiscard]] u64 now_ms() const override {
    const auto since = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::milliseconds>(since).count());
  }
  /// Sleeps `ms`, or until the thread's Deadline if that comes first.
  void sleep_ms(u64 ms) override {
    if (ms == 0) return;
    std::this_thread::sleep_until(
        std::min(std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(ms),
                 Deadline::current().at));
  }

  /// Shared instance — the default wherever a Clock* is nullptr.
  [[nodiscard]] static SystemClock& instance();
};

/// Test clock: time moves only via advance()/sleep_ms(). Thread-safe so a
/// server worker sleeping through a backoff advances time for everyone.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(u64 start_ms = 0) : now_ms_(start_ms) {}

  [[nodiscard]] u64 now_ms() const override {
    return now_ms_.load(std::memory_order_acquire);
  }
  void sleep_ms(u64 ms) override { advance(ms); }
  void advance(u64 ms) { now_ms_.fetch_add(ms, std::memory_order_acq_rel); }

  /// Total virtual milliseconds slept/advanced since construction.
  [[nodiscard]] u64 elapsed_ms() const { return now_ms(); }

 private:
  std::atomic<u64> now_ms_;
};

/// `clock` if non-null, the process SystemClock otherwise.
[[nodiscard]] inline Clock& clock_or_system(Clock* clock) {
  return clock != nullptr ? *clock
                          : static_cast<Clock&>(SystemClock::instance());
}

}  // namespace ispb::resilience

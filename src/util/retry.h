// Generic retry with exponential backoff and decorrelated jitter, for
// calls against unreliable backends (the black-box recommender under
// attack throttles crawlers and drops queries; see env/fault.h).
//
// The sleep is injectable so tests — and deterministic training runs —
// never block on a real clock. All jitter draws come from a caller-seeded
// Rng, so retry schedules are reproducible.
#ifndef POISONREC_UTIL_RETRY_H_
#define POISONREC_UTIL_RETRY_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/cancel.h"
#include "util/random.h"
#include "util/status.h"

namespace poisonrec {

/// The codes worth retrying, matching the fault model of env/fault.h:
/// transient unavailability (kUnavailable) and throttling
/// (kResourceExhausted). Any other non-OK code propagates immediately.
bool IsRetriable(StatusCode code);

/// How hard to retry.
struct RetryPolicy {
  /// Total attempts including the first call (1 = no retries).
  std::size_t max_attempts = 4;
  /// Backoff floor; the first retry sleeps at least this long.
  double initial_backoff_seconds = 0.05;
  /// Backoff ceiling (decorrelated jitter is clamped here).
  double max_backoff_seconds = 2.0;
  /// Total-elapsed-time deadline across every attempt and backoff sleep
  /// (0 = unbounded). When the next backoff would push the call past the
  /// deadline — counting real wall time and, under an injected fake
  /// sleep, the simulated slept seconds — the retry loop gives up with
  /// kDeadlineExceeded instead of sleeping. This is what keeps a retry
  /// loop from outliving the campaign deadline that contains it.
  double max_elapsed_seconds = 0.0;
};

/// Observability for a single retried call.
struct RetryStats {
  /// Attempts actually made (>= 1 once the call ran).
  std::size_t attempts = 0;
  /// attempts - 1 when the call ran; how many times we re-queried.
  std::size_t retries = 0;
  /// Total simulated/real backoff slept.
  double slept_seconds = 0.0;
};

/// Sleep hook; an empty function means "really sleep".
using SleepFn = std::function<void(double seconds)>;

/// Decorrelated-jitter backoff schedule (Brooker, AWS Architecture Blog):
///   delay_0 = base
///   delay_k = min(cap, uniform(base, 3 * delay_{k-1}))
/// Draws come from the given seed only, so schedules reproduce.
class RetryBackoff {
 public:
  RetryBackoff(const RetryPolicy& policy, std::uint64_t jitter_seed);

  /// Delay to sleep before the next retry.
  double NextDelaySeconds();

 private:
  double base_;
  double cap_;
  double previous_;
  bool first_ = true;
  Rng rng_;
};

/// Invokes `fn(attempt)` (attempt = 0, 1, ...) until it returns OK, a
/// non-retriable error, the attempt budget is spent, or the elapsed-time
/// deadline would be exceeded. On budget exhaustion the last error is
/// returned; on deadline exhaustion kDeadlineExceeded wrapping the last
/// error. `sleep` is called with the backoff delay between attempts;
/// pass {} to really sleep. A non-null `cancel` token is polled before
/// every attempt and interrupts the default (real) backoff sleep
/// immediately; cancellation returns kCancelled without calling fn
/// again, so a supervisor can always unblock a retry loop parked in a
/// long fault blackout.
template <typename T, typename Fn>
StatusOr<T> CallWithRetry(const RetryPolicy& policy, Fn&& fn,
                          std::uint64_t jitter_seed = 0,
                          RetryStats* stats = nullptr,
                          const SleepFn& sleep = {},
                          const CancelToken* cancel = nullptr);

// -- implementation ---------------------------------------------------------

namespace internal {
/// Blocks the calling thread (the default sleep hook).
void SleepForSeconds(double seconds);
/// Seconds of real wall time since `start` (steady clock ticks).
double ElapsedSecondsSince(std::uint64_t start_ticks);
/// Current steady-clock tick count (nanoseconds).
std::uint64_t NowTicks();
}  // namespace internal

template <typename T, typename Fn>
StatusOr<T> CallWithRetry(const RetryPolicy& policy, Fn&& fn,
                          std::uint64_t jitter_seed, RetryStats* stats,
                          const SleepFn& sleep, const CancelToken* cancel) {
  POISONREC_CHECK_GT(policy.max_attempts, 0u);
  RetryBackoff backoff(policy, jitter_seed);
  RetryStats local;
  const std::uint64_t start_ticks = internal::NowTicks();
  // The deadline tracks whichever is larger: real wall time (covers slow
  // fn calls and real sleeps) or the accumulated backoff delays (covers
  // tests that inject a fake sleep, where wall time barely moves).
  const auto elapsed = [&local, start_ticks] {
    const double wall = internal::ElapsedSecondsSince(start_ticks);
    return wall > local.slept_seconds ? wall : local.slept_seconds;
  };
  StatusOr<T> result = Status::Internal("retry loop never ran");
  const auto cancelled_status = [&local, &result] {
    return Status::Cancelled(
        "retry loop cancelled after " + std::to_string(local.attempts) +
        " attempt(s)" +
        (local.attempts > 0 ? "; last error: " + result.status().ToString()
                            : std::string()));
  };
  for (std::size_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (cancel != nullptr && cancel->cancelled()) {
      StatusOr<T> out = cancelled_status();
      if (stats != nullptr) *stats = local;
      return out;
    }
    if (attempt > 0) {
      const double delay = backoff.NextDelaySeconds();
      if (policy.max_elapsed_seconds > 0.0 &&
          elapsed() + delay > policy.max_elapsed_seconds) {
        StatusOr<T> deadline = Status::DeadlineExceeded(
            "retry deadline (" + std::to_string(policy.max_elapsed_seconds) +
            "s) exhausted after " + std::to_string(local.attempts) +
            " attempt(s); last error: " + result.status().ToString());
        if (stats != nullptr) *stats = local;
        return deadline;
      }
      local.slept_seconds += delay;
      if (sleep) {
        sleep(delay);
      } else if (cancel != nullptr) {
        cancel->SleepFor(delay);  // wakes immediately on Cancel
      } else {
        internal::SleepForSeconds(delay);
      }
      if (cancel != nullptr && cancel->cancelled()) {
        StatusOr<T> out = cancelled_status();
        if (stats != nullptr) *stats = local;
        return out;
      }
    }
    local.attempts = attempt + 1;
    local.retries = attempt;
    result = fn(attempt);
    if (result.ok() || !IsRetriable(result.status().code())) break;
  }
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace poisonrec

#endif  // POISONREC_UTIL_RETRY_H_

#include "util/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace poisonrec {

bool IsRetriable(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted;
}

RetryBackoff::RetryBackoff(const RetryPolicy& policy,
                           std::uint64_t jitter_seed)
    : base_(policy.initial_backoff_seconds),
      cap_(policy.max_backoff_seconds),
      previous_(policy.initial_backoff_seconds),
      rng_(jitter_seed) {}

double RetryBackoff::NextDelaySeconds() {
  if (first_) {
    first_ = false;
    previous_ = base_;
    return base_;
  }
  const double hi = std::max(base_, 3.0 * previous_);
  const double delay = std::min(cap_, rng_.Uniform(base_, hi));
  previous_ = delay;
  return delay;
}

namespace internal {

void SleepForSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

std::uint64_t NowTicks() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ElapsedSecondsSince(std::uint64_t start_ticks) {
  return static_cast<double>(NowTicks() - start_ticks) * 1e-9;
}

}  // namespace internal
}  // namespace poisonrec

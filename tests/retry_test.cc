// RetryPolicy / CallWithRetry tests. All schedules run against a fake
// sleep hook — nothing here ever blocks on a real clock.
#include "util/retry.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/cancel.h"

namespace poisonrec {
namespace {

/// Records requested sleeps instead of sleeping.
struct FakeClock {
  std::vector<double> sleeps;
  SleepFn Hook() {
    return [this](double seconds) { sleeps.push_back(seconds); };
  }
  double Total() const {
    double t = 0.0;
    for (double s : sleeps) t += s;
    return t;
  }
};

TEST(RetryPolicyTest, DefaultRetriableCodes) {
  EXPECT_TRUE(IsRetriable(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetriable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(IsRetriable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetriable(StatusCode::kInternal));
  EXPECT_FALSE(IsRetriable(StatusCode::kIoError));
}

TEST(CallWithRetryTest, SucceedsFirstTryWithoutSleeping) {
  FakeClock clock;
  RetryStats stats;
  auto result = CallWithRetry<int>(
      RetryPolicy{}, [](std::size_t) -> StatusOr<int> { return 42; },
      /*jitter_seed=*/1, &stats, clock.Hook());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_TRUE(clock.sleeps.empty());
}

TEST(CallWithRetryTest, RetriesTransientFailureUntilSuccess) {
  FakeClock clock;
  RetryStats stats;
  int calls = 0;
  auto result = CallWithRetry<int>(
      RetryPolicy{},
      [&calls](std::size_t attempt) -> StatusOr<int> {
        ++calls;
        EXPECT_EQ(attempt + 1, static_cast<std::size_t>(calls));
        if (attempt < 2) return Status::Unavailable("flaky");
        return 7;
      },
      /*jitter_seed=*/2, &stats, clock.Hook());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(clock.sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.slept_seconds, clock.Total());
}

TEST(CallWithRetryTest, NeverRetriesNonRetriableCodes) {
  FakeClock clock;
  RetryStats stats;
  int calls = 0;
  auto result = CallWithRetry<int>(
      RetryPolicy{},
      [&calls](std::size_t) -> StatusOr<int> {
        ++calls;
        return Status::InvalidArgument("bad request");
      },
      /*jitter_seed=*/3, &stats, clock.Hook());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_TRUE(clock.sleeps.empty());
}

TEST(CallWithRetryTest, ExhaustsBudgetAndReturnsLastError) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  auto result = CallWithRetry<int>(
      policy,
      [&calls](std::size_t) -> StatusOr<int> {
        ++calls;
        return Status::ResourceExhausted("throttled");
      },
      /*jitter_seed=*/4, nullptr, clock.Hook());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(clock.sleeps.size(), 2u);
}

TEST(CallWithRetryTest, BackoffScheduleRespectsFloorAndCeiling) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_seconds = 0.1;
  policy.max_backoff_seconds = 0.5;
  auto result = CallWithRetry<int>(
      policy,
      [](std::size_t) -> StatusOr<int> { return Status::Unavailable("x"); },
      /*jitter_seed=*/5, nullptr, clock.Hook());
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(clock.sleeps.size(), 7u);
  // First retry sleeps exactly the base; later ones stay within bounds.
  EXPECT_DOUBLE_EQ(clock.sleeps[0], 0.1);
  for (double s : clock.sleeps) {
    EXPECT_GE(s, 0.1);
    EXPECT_LE(s, 0.5);
  }
}

TEST(CallWithRetryTest, BackoffIsDeterministicInTheJitterSeed) {
  auto run = [](std::uint64_t seed) {
    FakeClock clock;
    RetryPolicy policy;
    policy.max_attempts = 6;
    CallWithRetry<int>(
        policy,
        [](std::size_t) -> StatusOr<int> { return Status::Unavailable("x"); },
        seed, nullptr, clock.Hook());
    return clock.sleeps;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(CallWithRetryTest, TotalElapsedDeadlineStopsTheLoop) {
  // The hybrid elapsed clock counts fake-slept seconds, so the deadline
  // is testable without real waiting: 3 sleeps of ~0.05s+ blow a 0.12s
  // budget long before the 50-attempt cap.
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_seconds = 0.05;
  policy.max_backoff_seconds = 0.05;
  policy.max_elapsed_seconds = 0.12;
  RetryStats stats;
  int calls = 0;
  auto result = CallWithRetry<int>(
      policy,
      [&calls](std::size_t) -> StatusOr<int> {
        ++calls;
        return Status::Unavailable("down");
      },
      /*jitter_seed=*/6, &stats, clock.Hook());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The deadline message wraps the last underlying error.
  EXPECT_NE(result.status().message().find("down"), std::string::npos)
      << result.status().message();
  // The loop gives up *before* a sleep that would cross the deadline:
  // attempts at t=0 / 0.05 / 0.10, then the next 0.05s backoff would
  // land past 0.12s.
  EXPECT_EQ(calls, 3);
  EXPECT_DOUBLE_EQ(stats.slept_seconds, 0.10);
  EXPECT_LE(stats.slept_seconds, policy.max_elapsed_seconds);
}

TEST(CallWithRetryTest, CancelTokenShortCircuitsBeforeFirstAttempt) {
  FakeClock clock;
  CancelToken cancel;
  cancel.Cancel();
  int calls = 0;
  auto result = CallWithRetry<int>(
      RetryPolicy{},
      [&calls](std::size_t) -> StatusOr<int> {
        ++calls;
        return 1;
      },
      /*jitter_seed=*/7, nullptr, clock.Hook(), &cancel);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 0);
}

TEST(CallWithRetryTest, CancelDuringBackoffStopsWithoutAnotherAttempt) {
  CancelToken cancel;
  int calls = 0;
  // Cancel fires from inside the (fake) backoff sleep — the loop must
  // notice before launching the next attempt.
  auto result = CallWithRetry<int>(
      RetryPolicy{},
      [&calls](std::size_t) -> StatusOr<int> {
        ++calls;
        return Status::Unavailable("down");
      },
      /*jitter_seed=*/8, nullptr,
      [&cancel](double) { cancel.Cancel(); }, &cancel);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 1);
}

TEST(CancelTokenTest, SleepForWakesImmediatelyOnCancel) {
  CancelToken cancel;
  cancel.Cancel();
  // Cancelled token: a long sleep returns at once (test would time out
  // otherwise).
  EXPECT_FALSE(cancel.SleepFor(60.0));
  cancel.Reset();
  EXPECT_FALSE(cancel.cancelled());
  // Uncancelled short sleep completes and reports "not cancelled".
  EXPECT_TRUE(cancel.SleepFor(0.001));
}

TEST(RetryBackoffTest, DecorrelatedJitterGrowsFromBase) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.2;
  policy.max_backoff_seconds = 100.0;
  RetryBackoff backoff(policy, 9);
  const double first = backoff.NextDelaySeconds();
  EXPECT_DOUBLE_EQ(first, 0.2);
  double previous = first;
  for (int i = 0; i < 10; ++i) {
    const double next = backoff.NextDelaySeconds();
    EXPECT_GE(next, 0.2);
    EXPECT_LE(next, std::max(0.2, 3.0 * previous) + 1e-12);
    previous = next;
  }
}

}  // namespace
}  // namespace poisonrec

// Copyright 2026 The densest Authors.
// Bounded retry-with-backoff for transient (kUnavailable) IO faults.
// Permanent faults (kIOError) are never retried: a dead disk stays dead,
// and retrying it would only delay the loud abort the sticky-status model
// promises. Backoff is decorrelated-jittered (AWS architecture blog,
// "Exponential Backoff And Jitter") so concurrent retriers spread out
// instead of synchronizing into retry storms; the jitter stream is seeded
// per retry loop, so injected-fault tests stay deterministic, and a zero
// seed disables jitter entirely (pure exponential, the legacy schedule).

#ifndef DENSEST_COMMON_RETRY_H_
#define DENSEST_COMMON_RETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/failpoint.h"
#include "common/random.h"

namespace densest {

/// \brief Knobs for the retry loops at the IO seams (binary edge-stream
/// prefetch, binary update-stream reads, spill reads and writes).
/// `max_attempts` counts total tries, so 1 means "no retries".
struct RetryPolicy {
  int max_attempts = 4;
  double base_delay_ms = 0.1;  // doubled per retry: 0.1, 0.2, 0.4, ...
  double max_delay_ms = 50.0;
  /// Seed for decorrelated jitter. 0 (the default) disables jitter: every
  /// retry loop sleeps the exact DelayMs schedule, which the fault-injection
  /// tests rely on. Nonzero seeds produce a deterministic jittered schedule
  /// per seed; concurrent retriers should use distinct seeds.
  uint64_t jitter_seed = 0;

  /// Deterministic exponential backoff delay before retry number `retry`
  /// (0-based). This is the no-jitter schedule and the upper envelope's
  /// shape; jittered delays are drawn by RetryBackoff below.
  double DelayMs(int retry) const {
    double d = base_delay_ms;
    for (int i = 0; i < retry && d < max_delay_ms; ++i) d *= 2.0;
    return d < max_delay_ms ? d : max_delay_ms;
  }
};

/// \brief Per-retry-loop backoff state. With a zero jitter_seed this
/// reproduces the legacy pure-exponential schedule exactly; with a nonzero
/// seed it draws decorrelated jitter: delay_k = min(max, uniform(base,
/// 3 * delay_{k-1})), which decorrelates concurrent retriers while keeping
/// the expected delay growing geometrically. One instance per retry loop —
/// the draw depends on the previous delay, so the state must not be shared.
class RetryBackoff {
 public:
  explicit RetryBackoff(const RetryPolicy& policy)
      : policy_(policy),
        rng_state_(policy.jitter_seed),
        prev_ms_(policy.base_delay_ms) {}

  /// Delay before the next retry, advancing the internal state.
  double NextDelayMs() {
    const double d = policy_.jitter_seed == 0
                         ? policy_.DelayMs(retry_++)
                         : NextJitteredMs();
    prev_ms_ = d;
    return d;
  }

  /// Sleeps for NextDelayMs().
  void Sleep() {
    const auto us = static_cast<int64_t>(NextDelayMs() * 1000.0);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

 private:
  double NextJitteredMs() {
    const double lo = policy_.base_delay_ms;
    const double hi = prev_ms_ * 3.0;
    double d = lo;
    if (hi > lo) {
      // 53-bit mantissa draw in [0, 1); deterministic across platforms.
      const double u =
          static_cast<double>(SplitMix64(rng_state_) >> 11) * 0x1.0p-53;
      d = lo + u * (hi - lo);
    }
    return d < policy_.max_delay_ms ? d : policy_.max_delay_ms;
  }

  RetryPolicy policy_;
  uint64_t rng_state_;
  double prev_ms_;
  int retry_ = 0;
};

/// \brief Observable outcome of the retry loops, read from the stream's
/// io_retry_stats() (and per job from JobStats) so transient faults that
/// healed are visible and distinguishable from permanent ones that aborted.
struct IoRetryStats {
  uint64_t retries = 0;    ///< individual retry attempts made
  uint64_t healed = 0;     ///< operations that succeeded after >=1 retry
  uint64_t exhausted = 0;  ///< operations that failed every attempt

  void Accumulate(const IoRetryStats& other) {
    retries += other.retries;
    healed += other.healed;
    exhausted += other.exhausted;
  }
};

/// \brief One IO seam's retry tallies, written only by
/// EvalFailpointWithRetry. Relaxed atomics: a seam may be read (stats())
/// while its retry loop runs on another thread — the edge stream's
/// prefetch task, concurrent spill readers — and each tally is an
/// independent monotonic count with no ordering relation to the data, so
/// a read that misses an in-flight increment attributes it to the next.
class IoRetryCounters {
 public:
  IoRetryStats stats() const {
    IoRetryStats s;
    s.retries = retries_.load(std::memory_order_relaxed);
    s.healed = healed_.load(std::memory_order_relaxed);
    s.exhausted = exhausted_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend FailpointAction EvalFailpointWithRetry(const char* name,
                                                const RetryPolicy& policy,
                                                IoRetryCounters& counters);
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> healed_{0};
  std::atomic<uint64_t> exhausted_{0};
};

/// Evaluates failpoint `name` (the device model of an IO seam), retrying
/// transient (kUnavailable) fires with `policy`'s backoff. Returns the
/// terminal action: kNone, kIOError or kShortRead, or kUnavailable once
/// the retry budget ran out. The one place that counts retries: into
/// `counters` and the registry's io.retries / io.retries_healed /
/// io.retries_exhausted.
FailpointAction EvalFailpointWithRetry(const char* name,
                                       const RetryPolicy& policy,
                                       IoRetryCounters& counters);

}  // namespace densest

#endif  // DENSEST_COMMON_RETRY_H_

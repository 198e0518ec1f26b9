#include "common/retry.h"

#include "obs/metrics.h"

namespace densest {

FailpointAction EvalFailpointWithRetry(const char* name,
                                       const RetryPolicy& policy,
                                       IoRetryCounters& counters) {
  int attempt = 0;
  RetryBackoff backoff(policy);
  for (;;) {
    const FailpointAction fp = DENSEST_FAILPOINT(name);
    if (fp != FailpointAction::kUnavailable) {
      if (attempt > 0) {
        counters.healed_.fetch_add(1, std::memory_order_relaxed);
        DENSEST_METRIC_COUNTER("io.retries_healed").Inc();
      }
      return fp;
    }
    if (attempt + 1 >= policy.max_attempts) {
      counters.exhausted_.fetch_add(1, std::memory_order_relaxed);
      DENSEST_METRIC_COUNTER("io.retries_exhausted").Inc();
      return FailpointAction::kUnavailable;
    }
    counters.retries_.fetch_add(1, std::memory_order_relaxed);
    DENSEST_METRIC_COUNTER("io.retries").Inc();
    ++attempt;
    backoff.Sleep();
  }
}

}  // namespace densest

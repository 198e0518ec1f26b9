// RetryBackoff schedule tests: a zero jitter seed must reproduce the
// legacy pure-exponential DelayMs schedule bit for bit (the contract the
// fault-injection suites lean on), and nonzero seeds must give bounded,
// deterministic, seed-dependent decorrelated jitter. Plus the shared retry
// loop, EvalFailpointWithRetry, driven through all three IO seams.

#include "common/retry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "io/spill_file.h"
#include "obs/metrics.h"
#include "stream/file_stream.h"
#include "stream/update_stream.h"

namespace densest {
namespace {

std::vector<double> Draw(const RetryPolicy& policy, int n) {
  RetryBackoff backoff(policy);
  std::vector<double> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(backoff.NextDelayMs());
  return out;
}

TEST(RetryBackoffTest, ZeroSeedReproducesLegacyExponentialScheduleExactly) {
  RetryPolicy policy;  // defaults: base 0.1, max 50, jitter_seed 0
  RetryBackoff backoff(policy);
  for (int retry = 0; retry < 16; ++retry) {
    EXPECT_EQ(backoff.NextDelayMs(), policy.DelayMs(retry)) << retry;
  }
}

TEST(RetryBackoffTest, LegacyScheduleDoublesAndSaturates) {
  RetryPolicy policy;
  policy.base_delay_ms = 1.0;
  policy.max_delay_ms = 8.0;
  EXPECT_DOUBLE_EQ(policy.DelayMs(0), 1.0);
  EXPECT_DOUBLE_EQ(policy.DelayMs(1), 2.0);
  EXPECT_DOUBLE_EQ(policy.DelayMs(2), 4.0);
  EXPECT_DOUBLE_EQ(policy.DelayMs(3), 8.0);
  EXPECT_DOUBLE_EQ(policy.DelayMs(10), 8.0);  // capped forever after
}

TEST(RetryBackoffTest, JitteredDelaysStayWithinTheDecorrelatedEnvelope) {
  RetryPolicy policy;
  policy.base_delay_ms = 1.0;
  policy.max_delay_ms = 40.0;
  policy.jitter_seed = 0xfeedULL;
  RetryBackoff backoff(policy);
  double prev = policy.base_delay_ms;
  for (int i = 0; i < 64; ++i) {
    const double d = backoff.NextDelayMs();
    EXPECT_GE(d, policy.base_delay_ms) << i;
    EXPECT_LE(d, policy.max_delay_ms) << i;
    // Decorrelated jitter: each draw is uniform in [base, 3 * prev].
    EXPECT_LE(d, std::min(policy.max_delay_ms, prev * 3.0) + 1e-12) << i;
    prev = d;
  }
}

TEST(RetryBackoffTest, JitterIsDeterministicPerSeedAndDiffersAcrossSeeds) {
  RetryPolicy policy;
  policy.base_delay_ms = 0.5;
  policy.max_delay_ms = 30.0;

  policy.jitter_seed = 41;
  const std::vector<double> a1 = Draw(policy, 12);
  const std::vector<double> a2 = Draw(policy, 12);
  EXPECT_EQ(a1, a2) << "same seed must give the same schedule";

  policy.jitter_seed = 42;
  const std::vector<double> b = Draw(policy, 12);
  EXPECT_NE(a1, b) << "distinct seeds should decorrelate the schedules";
}

IoRetryStats RegistryRetries() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Get();
  IoRetryStats s;
  s.retries = r.GetCounter("io.retries").Value();
  s.healed = r.GetCounter("io.retries_healed").Value();
  s.exhausted = r.GetCounter("io.retries_exhausted").Value();
  return s;
}

/// One IO seam: its failpoint, and an action that drives one guarded
/// operation through it and returns the seam's own retry stats.
struct Seam {
  const char* failpoint;
  std::function<IoRetryStats()> run;
};

std::vector<Seam> Seams() {
  const std::string dir = ::testing::TempDir();
  return {
      {"edge_stream.read",
       [dir] {
         const std::string path = dir + "/retry_edges.bin";
         EXPECT_TRUE(
             WriteBinaryEdgeFile(path, ErdosRenyiGnm(50, 100, 3), false).ok());
         auto stream = BinaryFileEdgeStream::Open(path);  // prefetches
         EXPECT_TRUE(stream.ok());
         Edge e;
         while ((*stream)->Next(&e)) {
         }
         IoRetryStats stats = (*stream)->io_retry_stats();
         std::remove(path.c_str());
         return stats;
       }},
      {"update_stream.read",
       [dir] {
         const std::string path = dir + "/retry_updates.bin";
         std::vector<EdgeUpdate> updates(10);
         for (size_t i = 0; i < updates.size(); ++i) {
           updates[i].v = 1;
           updates[i].timestamp = i;
         }
         EXPECT_TRUE(WriteBinaryUpdateFile(path, 2, updates).ok());
         auto stream = BinaryFileUpdateStream::Open(path);
         EXPECT_TRUE(stream.ok());
         EdgeUpdate buf[16];
         (void)(*stream)->NextBatch(buf, 16);
         IoRetryStats stats = (*stream)->io_retry_stats();
         std::remove(path.c_str());
         return stats;
       }},
      {"spill.append",
       [dir] {
         auto file = SpillFile::Create(dir);
         EXPECT_TRUE(file.ok());
         const char bytes[8] = {};
         (void)(*file)->Append(bytes, sizeof(bytes));
         return (*file)->io_retry_stats();
       }},
  };
}

class IoRetrySeamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Failpoints::compiled_in()) {
      GTEST_SKIP() << "built with -DDENSEST_FAILPOINTS=OFF";
    }
  }
  void TearDown() override {
    if (Failpoints::compiled_in()) Failpoints::Instance().ClearAll();
  }

  /// Arms each seam's failpoint with `spec`, runs the seam once, and
  /// checks its own stats and the registry delta both equal `want`.
  void ExpectEverySeamCounts(const std::string& spec, IoRetryStats want) {
    for (const Seam& seam : Seams()) {
      SCOPED_TRACE(seam.failpoint);
      ASSERT_TRUE(Failpoints::Instance().Set(seam.failpoint, spec).ok());
      const IoRetryStats before = RegistryRetries();
      const IoRetryStats stats = seam.run();
      Failpoints::Instance().Clear(seam.failpoint);
      const IoRetryStats after = RegistryRetries();
      EXPECT_EQ(stats.retries, want.retries);
      EXPECT_EQ(stats.healed, want.healed);
      EXPECT_EQ(stats.exhausted, want.exhausted);
      EXPECT_EQ(after.retries - before.retries, want.retries);
      EXPECT_EQ(after.healed - before.healed, want.healed);
      EXPECT_EQ(after.exhausted - before.exhausted, want.exhausted);
    }
  }
};

TEST_F(IoRetrySeamTest, TransientFaultHealsAndCountsOnce) {
  ExpectEverySeamCounts("times=2,kind=unavailable",
                        {.retries = 2, .healed = 1, .exhausted = 0});
}

TEST_F(IoRetrySeamTest, PersistentFaultExhaustsTheBudget) {
  // The default policy tries 4 times: 3 retries, then gives up.
  ExpectEverySeamCounts("kind=unavailable",
                        {.retries = 3, .healed = 0, .exhausted = 1});
}

}  // namespace
}  // namespace densest

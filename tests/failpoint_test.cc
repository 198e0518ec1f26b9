// Fault-injection tests: the failpoint registry itself, then every sticky
// IO seam of the library driven through its three failure modes —
// permanent (kIOError), transient-and-healed (kUnavailable under retry),
// and torn data (kShortRead) — asserting the exact error class at each
// seam and that no seam ever turns a fault into a plausible wrong result.

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "io/edge_list_io.h"
#include "io/spill_file.h"
#include "mapreduce/graph_jobs.h"
#include "mapreduce/job.h"
#include "mapreduce/stream_source.h"
#include "stream/file_stream.h"
#include "stream/memory_stream.h"
#include "stream/pass_stats.h"
#include "stream/update_stream.h"

namespace densest {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("failpoint_test_" + name + "_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
      .string();
}

/// Every injection test runs armed only for its own lifetime; a leaked
/// armed point would fail unrelated suites in the same binary.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Failpoints::compiled_in()) {
      GTEST_SKIP() << "built with -DDENSEST_FAILPOINTS=OFF";
    }
    Failpoints::Instance().ClearAll();
  }
  void TearDown() override {
    if (Failpoints::compiled_in()) Failpoints::Instance().ClearAll();
  }
};

// ------------------------------------------------------------- registry --

TEST_F(FailpointTest, SpecGrammarRejectsMalformedClauses) {
  Failpoints& fp = Failpoints::Instance();
  EXPECT_TRUE(fp.Set("t.g", "after=2,times=1,kind=unavailable").ok());
  EXPECT_TRUE(fp.Set("t.g", "off").ok());
  EXPECT_FALSE(fp.Set("t.g", "after=banana").ok());
  EXPECT_FALSE(fp.Set("t.g", "kind=bogus").ok());
  EXPECT_FALSE(fp.Set("t.g", "prob=1.5").ok());
  EXPECT_FALSE(fp.Set("t.g", "nonsense").ok());
  EXPECT_EQ(fp.Set("t.g", "after=x").code(), Status::Code::kInvalidArgument);
}

TEST_F(FailpointTest, AfterAndTimesControlTheFiringWindow) {
  Failpoints& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Set("t.window", "after=2,times=3").ok());
  std::vector<FailpointAction> got;
  for (int i = 0; i < 8; ++i) got.push_back(fp.Eval("t.window"));
  const std::vector<FailpointAction> want = {
      FailpointAction::kNone,    FailpointAction::kNone,
      FailpointAction::kIOError, FailpointAction::kIOError,
      FailpointAction::kIOError, FailpointAction::kNone,
      FailpointAction::kNone,    FailpointAction::kNone};
  EXPECT_EQ(got, want);
  EXPECT_EQ(fp.evaluations("t.window"), 8u);
  EXPECT_EQ(fp.fires("t.window"), 3u);
  // Unarmed names are silent and uncounted fires.
  EXPECT_EQ(fp.Eval("t.never_armed"), FailpointAction::kNone);
  fp.Clear("t.window");
  EXPECT_EQ(fp.Eval("t.window"), FailpointAction::kNone);
}

TEST_F(FailpointTest, ProbIsDeterministicPerSeed) {
  Failpoints& fp = Failpoints::Instance();
  auto draw = [&](uint64_t seed) {
    EXPECT_TRUE(
        fp.Set("t.prob", "prob=0.5,seed=" + std::to_string(seed)).ok());
    std::vector<FailpointAction> v;
    for (int i = 0; i < 64; ++i) v.push_back(fp.Eval("t.prob"));
    return v;
  };
  const auto a = draw(7);
  const auto b = draw(7);
  const auto c = draw(8);
  EXPECT_EQ(a, b);  // same seed, same firing stream
  EXPECT_NE(a, c);  // different seed diverges
  // p=0.5 over 64 draws: both outcomes must occur.
  EXPECT_NE(std::count(a.begin(), a.end(), FailpointAction::kNone), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), FailpointAction::kIOError), 0);
}

TEST(FailpointCompiledOutTest, ArmingFailsLoudlyWhenCompiledOut) {
  if (Failpoints::compiled_in()) {
    GTEST_SKIP() << "built with -DDENSEST_FAILPOINTS=ON";
  }
  // Arming a fault that can never fire must not silently "pass" a test.
  EXPECT_EQ(Failpoints::Instance().Set("t.x", "after=0").code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(DENSEST_FAILPOINT("t.x"), FailpointAction::kNone);
}

// ---------------------------------------------------- binary edge stream --

class EdgeStreamFaultTest : public FailpointTest {
 protected:
  void SetUp() override {
    FailpointTest::SetUp();
    if (IsSkipped()) return;
    edges_ = ErdosRenyiGnm(500, 10000, 17);
    path_ = TempPath("edges.bin");
    ASSERT_TRUE(WriteBinaryEdgeFile(path_, edges_, /*weighted=*/false).ok());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    FailpointTest::TearDown();
  }

  /// Drains the stream and returns how many edges came out.
  static uint64_t Drain(EdgeStream& stream) {
    stream.Reset();
    Edge e;
    uint64_t n = 0;
    while (stream.Next(&e)) ++n;
    return n;
  }

  EdgeList edges_;
  std::string path_;
};

TEST_F(EdgeStreamFaultTest, PermanentIOErrorIsStickyAndNonRetryable) {
  ASSERT_TRUE(Failpoints::Instance().Set("edge_stream.read", "kind=io").ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  EXPECT_LT(Drain(**stream), edges_.num_edges());
  EXPECT_EQ((*stream)->status().code(), Status::Code::kIOError);
  EXPECT_FALSE((*stream)->status().IsRetryable());
  // No retries for a permanent fault: the budget is for transient ones.
  EXPECT_EQ((*stream)->io_retry_stats().retries, 0u);
  // Sticky across Reset even after the failpoint is gone.
  Failpoints::Instance().Clear("edge_stream.read");
  EXPECT_EQ(Drain(**stream), 0u);
  EXPECT_EQ((*stream)->status().code(), Status::Code::kIOError);
}

TEST_F(EdgeStreamFaultTest, TransientFaultHealsAndCountsIntoRetryStats) {
  ASSERT_TRUE(Failpoints::Instance()
                  .Set("edge_stream.read", "times=2,kind=unavailable")
                  .ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  PassStats pass;
  CountingEdgeStream counted(**stream, pass);
  // The retry loop absorbs both transient fires: the pass is complete and
  // correct, and the limp is observable in the stream's retry stats, read
  // through the decorator as well as from the stream itself.
  EXPECT_EQ(Drain(counted), edges_.num_edges());
  EXPECT_TRUE(counted.status().ok());
  EXPECT_EQ(pass.edges_scanned, edges_.num_edges());
  const IoRetryStats retry = (*stream)->io_retry_stats();
  EXPECT_EQ(retry.retries, 2u);
  EXPECT_GE(retry.healed, 1u);
  EXPECT_EQ(retry.exhausted, 0u);
  EXPECT_EQ(counted.io_retry_stats().retries, retry.retries);
  EXPECT_EQ(counted.io_retry_stats().healed, retry.healed);
}

TEST_F(EdgeStreamFaultTest, ExhaustedRetryBudgetSurfacesAsUnavailable) {
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  // One clean pass first: it settles the Open()-issued prefetch (arming
  // while it is still in flight would make the fault count racy) and the
  // whole file fits one IO buffer, so no further prefetch is in flight
  // after it.
  EXPECT_EQ(Drain(**stream), edges_.num_edges());
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 0.01;  // keep the test fast
  (*stream)->set_retry_policy(policy);
  ASSERT_TRUE(
      Failpoints::Instance().Set("edge_stream.read", "kind=unavailable").ok());
  EXPECT_LT(Drain(**stream), edges_.num_edges());
  // A permanently-unavailable disk ends the stream with the retryable
  // class — callers can distinguish "retry the whole pass later" from
  // "this file is damaged".
  EXPECT_EQ((*stream)->status().code(), Status::Code::kUnavailable);
  EXPECT_TRUE((*stream)->status().IsRetryable());
  const IoRetryStats retry = (*stream)->io_retry_stats();
  EXPECT_EQ(retry.retries, 2u);  // attempts 2 and 3 of the budget of 3
  EXPECT_EQ(retry.exhausted, 1u);
}

TEST_F(EdgeStreamFaultTest, ShortReadSurfacesAsTruncationNeverAsEndOfData) {
  ASSERT_TRUE(
      Failpoints::Instance().Set("edge_stream.read", "kind=short").ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  const uint64_t got = Drain(**stream);
  EXPECT_LT(got, edges_.num_edges());
  EXPECT_GT(got, 0u);  // the tear delivered whole records, then stopped
  EXPECT_EQ((*stream)->status().code(), Status::Code::kIOError);
  EXPECT_NE((*stream)->status().message().find("truncated"),
            std::string::npos);
}

TEST_F(EdgeStreamFaultTest, EdgeFileWriteFailpointFailsTheWrite) {
  ASSERT_TRUE(Failpoints::Instance().Set("edge_file.write", "after=0").ok());
  const std::string out = TempPath("failed_write.bin");
  EXPECT_EQ(WriteBinaryEdgeFile(out, edges_, false).code(),
            Status::Code::kIOError);
  std::remove(out.c_str());
}

TEST_F(EdgeStreamFaultTest, TextEdgeListReadFailpointFailsTheLoad) {
  const std::string txt = TempPath("edges.txt");
  {
    std::ofstream f(txt);
    f << "0 1\n1 2\n2 3\n";
  }
  ASSERT_TRUE(Failpoints::Instance().Set("edge_list.read", "after=1").ok());
  EXPECT_EQ(ReadEdgeListText(txt).status().code(), Status::Code::kIOError);
  std::remove(txt.c_str());
}

// --------------------------------------------------- binary update stream --

class UpdateStreamFaultTest : public FailpointTest {
 protected:
  void SetUp() override {
    FailpointTest::SetUp();
    if (IsSkipped()) return;
    for (uint32_t i = 0; i < 5000; ++i) {
      updates_.push_back(InsertUpdate(i % 97, (i + 1) % 97, i + 1));
    }
    path_ = TempPath("updates.bin");
    ASSERT_TRUE(WriteBinaryUpdateFile(path_, 97, updates_).ok());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    FailpointTest::TearDown();
  }

  static uint64_t Drain(UpdateStream& stream) {
    stream.Reset();
    EdgeUpdate u;
    uint64_t n = 0;
    while (stream.Next(&u)) ++n;
    return n;
  }

  std::vector<EdgeUpdate> updates_;
  std::string path_;
};

TEST_F(UpdateStreamFaultTest, PermanentIOErrorIsSticky) {
  ASSERT_TRUE(
      Failpoints::Instance().Set("update_stream.read", "kind=io").ok());
  auto stream = BinaryFileUpdateStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  EXPECT_LT(Drain(**stream), updates_.size());
  EXPECT_EQ((*stream)->status().code(), Status::Code::kIOError);
}

TEST_F(UpdateStreamFaultTest, TransientFaultHealsWithRetryStats) {
  ASSERT_TRUE(Failpoints::Instance()
                  .Set("update_stream.read", "times=1,kind=unavailable")
                  .ok());
  auto stream = BinaryFileUpdateStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(Drain(**stream), updates_.size());
  EXPECT_TRUE((*stream)->status().ok());
  const IoRetryStats retry = (*stream)->io_retry_stats();
  EXPECT_EQ(retry.retries, 1u);
  EXPECT_EQ(retry.healed, 1u);
}

TEST_F(UpdateStreamFaultTest, ExhaustedRetriesSurfaceAsUnavailable) {
  ASSERT_TRUE(Failpoints::Instance()
                  .Set("update_stream.read", "kind=unavailable")
                  .ok());
  auto stream = BinaryFileUpdateStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_delay_ms = 0.01;
  (*stream)->set_retry_policy(policy);
  EXPECT_EQ(Drain(**stream), 0u);
  EXPECT_EQ((*stream)->status().code(), Status::Code::kUnavailable);
  EXPECT_EQ((*stream)->io_retry_stats().exhausted, 1u);
}

TEST_F(UpdateStreamFaultTest, ShortReadIsTruncationNotEndOfStream) {
  ASSERT_TRUE(
      Failpoints::Instance().Set("update_stream.read", "kind=short").ok());
  auto stream = BinaryFileUpdateStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  EXPECT_LT(Drain(**stream), updates_.size());
  EXPECT_EQ((*stream)->status().code(), Status::Code::kIOError);
  EXPECT_NE((*stream)->status().message().find("truncated"),
            std::string::npos);
}

TEST_F(UpdateStreamFaultTest, WriteAndFlushFailpointsFailTheWriter) {
  const std::string out = TempPath("failed_updates.bin");
  ASSERT_TRUE(Failpoints::Instance().Set("update_file.write", "after=0").ok());
  Status body = WriteBinaryUpdateFile(out, 97, updates_);
  EXPECT_EQ(body.code(), Status::Code::kIOError);
  EXPECT_NE(body.message().find("short write"), std::string::npos);
  Failpoints::Instance().ClearAll();

  // The flush seam is distinct: data was written, the final fclose fails.
  ASSERT_TRUE(Failpoints::Instance().Set("update_file.flush", "after=0").ok());
  Status flush = WriteBinaryUpdateFile(out, 97, updates_);
  EXPECT_EQ(flush.code(), Status::Code::kIOError);
  EXPECT_NE(flush.message().find("flush failed"), std::string::npos);
  std::remove(out.c_str());
}

// -------------------------------------------------------------- spill IO --

TEST_F(FailpointTest, SpillAppendUnavailableIsStickyAfterBudget) {
  auto spill = SpillFile::Create("");
  ASSERT_TRUE(spill.ok());
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_delay_ms = 0.01;
  (*spill)->set_retry_policy(policy);
  ASSERT_TRUE(Failpoints::Instance().Set("spill.append", "kind=unavailable").ok());
  const char buf[64] = {0};
  EXPECT_EQ((*spill)->Append(buf, sizeof(buf)).code(),
            Status::Code::kUnavailable);
  EXPECT_EQ((*spill)->io_retry_stats().exhausted, 1u);
  // Sticky: the spill is damaged goods even after the fault clears.
  Failpoints::Instance().ClearAll();
  EXPECT_FALSE((*spill)->Append(buf, sizeof(buf)).ok());
}

/// A flushed spill file holding the uint64_t values [0, n).
std::unique_ptr<SpillFile> IotaSpill(size_t n) {
  auto spill = SpillFile::Create("");
  EXPECT_TRUE(spill.ok()) << spill.status().ToString();
  std::vector<uint64_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = i;
  EXPECT_TRUE((*spill)->Append(data.data(), n * 8).ok());
  EXPECT_TRUE((*spill)->Flush().ok());
  return std::move(*spill);
}

TEST_F(FailpointTest, SpillReadAtShortReadIsTruncation) {
  auto spill = IotaSpill(1000);
  ASSERT_TRUE(
      Failpoints::Instance().Set("spill.read_at", "times=1,kind=short").ok());
  std::vector<uint64_t> buf(1000);
  StatusOr<size_t> torn = spill->ReadAt(0, buf.data(), buf.size() * 8);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), Status::Code::kIOError);
  EXPECT_NE(torn.status().message().find("truncated"), std::string::npos);
  // The fault fired once; the next read of the same bytes is whole.
  StatusOr<size_t> whole = spill->ReadAt(0, buf.data(), buf.size() * 8);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*whole, 1000u * 8);
  EXPECT_EQ(buf[999], 999u);
}

TEST_F(FailpointTest, SpillReadAtIOErrorFailsTheRead) {
  auto spill = IotaSpill(10);
  ASSERT_TRUE(Failpoints::Instance().Set("spill.read_at", "kind=io").ok());
  uint64_t v = 0;
  StatusOr<size_t> n = spill->ReadAt(0, &v, 8);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), Status::Code::kIOError);
  EXPECT_NE(n.status().message().find("injected"), std::string::npos);
}

TEST_F(FailpointTest, SpillReadAtTransientFaultHealsWithinBudget) {
  auto spill = IotaSpill(10);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay_ms = 0.01;
  spill->set_retry_policy(policy);
  ASSERT_TRUE(Failpoints::Instance()
                  .Set("spill.read_at", "times=2,kind=unavailable")
                  .ok());
  uint64_t v = 0;
  StatusOr<size_t> n = spill->ReadAt(3 * 8, &v, 8);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(spill->io_retry_stats().retries, 2u);
  EXPECT_EQ(spill->io_retry_stats().healed, 1u);
}

/// Runs the combined degree job with a 1-byte spill budget so the whole
/// shuffle goes through SpillFile, under whatever failpoints are armed.
StatusOr<std::vector<KV<NodeId, EdgeId>>> RunSpilledDegreeJob(
    JobStats* stats) {
  EdgeList el = ErdosRenyiGnm(300, 4000, 21);
  MapReduceEnv env({}, 4);
  EdgeListStream stream(el);
  StreamRecordSource source(stream);
  JobOptions opts;
  opts.spill_budget_bytes = 1;
  return MrDegreeJobCombined(env, source, opts, stats);
}

TEST_F(FailpointTest, TruncatedSpillMidMergeFailsTheJobLoudly) {
  // The merge phase reads its sorted runs through ReadAt; a torn read
  // there must fail the reduce, never feed it a partial run (a reduce
  // over a partial partition aggregates to a plausible wrong answer).
  ASSERT_TRUE(Failpoints::Instance()
                  .Set("spill.read_at", "after=3,kind=short")
                  .ok());
  JobStats stats;
  auto out = RunSpilledDegreeJob(&stats);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), Status::Code::kIOError);
  EXPECT_NE(out.status().message().find("truncated"), std::string::npos);
}

TEST_F(FailpointTest, TransientSpillFaultHealsAndCountsIntoJobStats) {
  ASSERT_TRUE(Failpoints::Instance()
                  .Set("spill.read_at", "times=2,kind=unavailable")
                  .ok());
  JobStats faulty_stats;
  auto faulty = RunSpilledDegreeJob(&faulty_stats);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_GE(faulty_stats.io_retries, 2u);
  EXPECT_GE(faulty_stats.io_retries_healed, 1u);

  // Identical output to a clean run: the retries healed, nothing leaked.
  Failpoints::Instance().ClearAll();
  JobStats clean_stats;
  auto clean = RunSpilledDegreeJob(&clean_stats);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(faulty->size(), clean->size());
  for (size_t i = 0; i < clean->size(); ++i) {
    EXPECT_EQ((*faulty)[i].key, (*clean)[i].key);
    EXPECT_EQ((*faulty)[i].value, (*clean)[i].value);
  }
  EXPECT_EQ(clean_stats.io_retries, 0u);
}

}  // namespace
}  // namespace densest

// Crash-recovery tests for the dynamic service: snapshot round trips are
// bit-for-bit (the restored engine evolves identically to the original),
// replay(snapshot -> crash point) reproduces an uninterrupted run exactly
// at several distinct crash offsets, and a torn/corrupted/stale snapshot
// degrades to a full rebuild — it never yields a wrong density.

#include "dynamic/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "dynamic/dynamic_densest.h"
#include "dynamic/replay.h"
#include "gen/erdos_renyi.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"

namespace densest {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("snapshot_test_" + name + "_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
      .string();
}

/// A deterministic insert+delete workload: a sliding window over a random
/// edge sequence, materialized so every run sees the identical updates.
std::vector<EdgeUpdate> MakeWorkload(NodeId n, EdgeId m, uint64_t window,
                                     uint64_t seed) {
  EdgeList edges = ErdosRenyiGnm(n, m, seed);
  EdgeListStream base(edges);
  SlidingWindowUpdateStream stream(base, window);
  stream.Reset();
  std::vector<EdgeUpdate> out;
  EdgeUpdate u;
  while (stream.Next(&u)) out.push_back(u);
  return out;
}

/// Everything two engines must agree on to count as the same state.
void ExpectEnginesIdentical(DynamicDensest& a, DynamicDensest& b) {
  const DynamicDensest::Answer qa = a.Query();
  const DynamicDensest::Answer qb = b.Query();
  EXPECT_EQ(qa.density, qb.density);  // bit-for-bit, no tolerance
  EXPECT_EQ(qa.upper_bound, qb.upper_bound);
  EXPECT_EQ(qa.size, qb.size);
  EXPECT_EQ(qa.certified, qb.certified);
  EXPECT_EQ(a.DensestNodes(), b.DensestNodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.window_lo(), b.window_lo());
  EXPECT_EQ(a.window_hi(), b.window_hi());
  EXPECT_EQ(a.trim_streak(), b.trim_streak());
  const DynamicDensestStats& sa = a.stats();
  const DynamicDensestStats& sb = b.stats();
  EXPECT_EQ(sa.inserts, sb.inserts);
  EXPECT_EQ(sa.deletes, sb.deletes);
  EXPECT_EQ(sa.ignored, sb.ignored);
  EXPECT_EQ(sa.level_moves, sb.level_moves);
  EXPECT_EQ(sa.recomputes, sb.recomputes);
  EXPECT_EQ(sa.window_moves, sb.window_moves);
  EXPECT_EQ(sa.structures_rebuilt, sb.structures_rebuilt);
  EXPECT_EQ(sa.trims_deferred, sb.trims_deferred);
  EXPECT_EQ(sa.recomputes_avoided, sb.recomputes_avoided);
  EXPECT_EQ(sa.last_recompute_density, sb.last_recompute_density);
}

TEST(SnapshotTest, RoundTripRestoresStateAndFutureEvolutionExactly) {
  const NodeId kNodes = 80;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 1500, 200, 5);
  const size_t kCut = workload.size() / 2;

  DynamicDensestOptions opt;
  opt.epsilon = 0.5;
  auto original = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(original.ok());
  for (size_t i = 0; i < kCut; ++i) (*original)->Apply(workload[i]);

  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(WriteSnapshot(path, **original, kCut).ok());
  auto restored = ReadSnapshot(path, opt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->cursor, kCut);
  ExpectEnginesIdentical(**original, *restored->engine);

  // The strong property: applying the identical suffix to both engines
  // keeps them identical — the snapshot captured adjacency order, levels,
  // window and streak, not merely the answer.
  for (size_t i = kCut; i < workload.size(); ++i) {
    (*original)->Apply(workload[i]);
    restored->engine->Apply(workload[i]);
  }
  ExpectEnginesIdentical(**original, *restored->engine);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripsEnginesWithEmptySections) {
  // Isolated nodes serialize empty adjacency sections, and a fresh engine
  // has nothing but empty sections; decoding them must not hand memcpy the
  // null data() of an empty vector (UBSan flags that even for 0 bytes).
  DynamicDensestOptions opt;
  opt.epsilon = 0.5;
  const NodeId kNodes = 40;
  auto sparse = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(sparse.ok());
  for (NodeId u = 0; u < 6; ++u) {
    EdgeUpdate insert;
    insert.u = u;
    insert.v = u + 1;
    insert.kind = static_cast<uint32_t>(UpdateKind::kInsert);
    insert.timestamp = u + 1;
    (*sparse)->Apply(insert);
  }
  auto fresh = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(fresh.ok());
  for (DynamicDensest* engine : {sparse->get(), fresh->get()}) {
    const std::string path = TempPath("empty_sections");
    ASSERT_TRUE(WriteSnapshot(path, *engine, 6).ok());
    auto restored = ReadSnapshot(path, opt);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectEnginesIdentical(*engine, *restored->engine);
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, CrashRecoveryMatchesUninterruptedRunAtManyOffsets) {
  if (!Failpoints::compiled_in()) {
    GTEST_SKIP() << "built with -DDENSEST_FAILPOINTS=OFF";
  }
  const NodeId kNodes = 70;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 1200, 150, 9);
  DynamicDensestOptions opt;
  opt.epsilon = 0.6;

  ReplayOptions replay_opt;
  replay_opt.query_every = 0;
  replay_opt.batch_size = 64;
  replay_opt.snapshot_every = 100;

  // The reference: one uninterrupted run over the whole workload.
  auto uninterrupted = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(uninterrupted.ok());
  {
    MemoryUpdateStream stream(workload, kNodes);
    ReplayOptions clean = replay_opt;
    clean.snapshot_every = 0;
    ASSERT_TRUE(ReplayUpdates(stream, **uninterrupted, clean).ok());
  }

  // Crash at several distinct apply offsets (the failpoint counts run
  // boundaries, so different `after` values land at different updates),
  // restore from the snapshot on disk, replay the tail, and demand the
  // final state match the uninterrupted run bit for bit.
  for (uint64_t crash_after : {2u, 9u, 23u}) {
    const std::string path =
        TempPath("crash_" + std::to_string(crash_after));
    auto crashed = DynamicDensest::Create(kNodes, opt);
    ASSERT_TRUE(crashed.ok());
    ASSERT_TRUE(Failpoints::Instance()
                    .Set("replay.crash",
                         "after=" + std::to_string(crash_after) + ",times=1")
                    .ok());
    {
      MemoryUpdateStream stream(workload, kNodes);
      ReplayOptions crashing = replay_opt;
      crashing.snapshot_path = path;
      StatusOr<ReplayReport> r = ReplayUpdates(stream, **crashed, crashing);
      ASSERT_FALSE(r.ok());  // it really did die mid-stream
      EXPECT_NE(r.status().message().find("crash"), std::string::npos);
    }
    Failpoints::Instance().ClearAll();

    // Restart: restore the snapshot, resume the stream from its cursor.
    auto restored = ReadSnapshot(path, opt);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_GT(restored->cursor, 0u);
    EXPECT_LT(restored->cursor, workload.size());
    {
      MemoryUpdateStream stream(workload, kNodes);
      ReplayOptions resume = replay_opt;
      resume.snapshot_every = 0;
      resume.skip_updates = restored->cursor;
      StatusOr<ReplayReport> r =
          ReplayUpdates(stream, *restored->engine, resume);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(resume.skip_updates + r->updates, workload.size());
    }
    ExpectEnginesIdentical(**uninterrupted, *restored->engine);
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, CorruptedOrTornSnapshotFailsClosedToFullRebuild) {
  const NodeId kNodes = 50;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 600, 100, 13);
  DynamicDensestOptions opt;
  auto engine = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(engine.ok());
  for (const EdgeUpdate& u : workload) (*engine)->Apply(u);
  const std::string path = TempPath("damage");
  ASSERT_TRUE(WriteSnapshot(path, **engine, workload.size()).ok());
  const auto size = std::filesystem::file_size(path);

  // Flip one byte mid-body: checksum catches it.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
    const char x = 0x5a;
    std::fwrite(&x, 1, 1, f);
    std::fclose(f);
  }
  auto corrupted = ReadSnapshot(path, opt);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), Status::Code::kIOError);

  // Torn file (crash mid-write without the atomic rename): rejected.
  ASSERT_TRUE(WriteSnapshot(path, **engine, workload.size()).ok());
  std::filesystem::resize_file(path, size - 17);
  auto torn = ReadSnapshot(path, opt);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), Status::Code::kIOError);

  // Not a snapshot at all.
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[80] = "definitely not a snapshot";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  auto junked = ReadSnapshot(path, opt);
  ASSERT_FALSE(junked.ok());
  EXPECT_EQ(junked.status().code(), Status::Code::kIOError);

  // Missing file.
  std::remove(path.c_str());
  EXPECT_FALSE(ReadSnapshot(path, opt).ok());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// FNV-1a-64, the snapshot body checksum: a checksum, not an
/// authenticator, so a forged body can carry a valid one.
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(SnapshotTest, ForgedBodySizeFailsClosed) {
  // A 32-byte file: a valid header whose body_size claims 2^40 bytes. The
  // restore must refuse it before allocating the body.
  const std::string path = TempPath("forged_size");
  std::string file(32, '\0');
  std::memcpy(file.data(), "DENSSNAP", 8);
  const uint32_t version = 2;
  const uint64_t body_size = uint64_t{1} << 40;
  std::memcpy(file.data() + 8, &version, sizeof(version));
  std::memcpy(file.data() + 16, &body_size, sizeof(body_size));
  WriteFileBytes(path, file);
  auto restored = ReadSnapshot(path, DynamicDensestOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), Status::Code::kIOError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ForgedSizeFieldsWithValidChecksumFailClosed) {
  // Rewrites the body's node count, node 0's degree and the slot count
  // to values far beyond the body, re-signs the body, and expects an
  // IOError: each field is checked against the bytes left before it
  // sizes a vector.
  const NodeId kNodes = 30;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 200, 60, 23);
  DynamicDensestOptions opt;
  auto engine = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(engine.ok());
  for (const EdgeUpdate& u : workload) (*engine)->Apply(u);
  const std::string path = TempPath("forged_fields");
  ASSERT_TRUE(WriteSnapshot(path, **engine, workload.size()).ok());
  const std::string good = ReadFileBytes(path);
  ASSERT_TRUE(ReadSnapshot(path, opt).ok());

  // Body layout: n, lo, num_slots (u32 each) lead; the fixed fields end
  // where the per-node sections start, which the sizes locate from the
  // back: n degrees, two ids per edge, num_slots * n levels.
  const std::string body = good.substr(32);
  const size_t sections =
      size_t{kNodes} * sizeof(uint32_t) +
      2 * size_t{(*engine)->num_edges()} * sizeof(NodeId) +
      (*engine)->num_slots() * size_t{kNodes} * sizeof(uint16_t);
  ASSERT_LT(sections, body.size());
  const size_t node0_degree = body.size() - sections;
  struct Forgery {
    const char* field;
    size_t offset;
    uint32_t value;
  };
  for (const Forgery& forged :
       {Forgery{"n", 0, 0xFFFFFFF0u}, Forgery{"n = 0", 0, 0},
        Forgery{"num_slots", 8, 0xFFFFFFFFu},
        Forgery{"deg(0)", node0_degree, 0xFFFFFFFFu}}) {
    std::string bad_body = body;
    std::memcpy(bad_body.data() + forged.offset, &forged.value,
                sizeof(uint32_t));
    std::string file = good.substr(0, 32) + bad_body;
    const uint64_t checksum = Fnv1a64(bad_body);
    std::memcpy(file.data() + 24, &checksum, sizeof(checksum));
    WriteFileBytes(path, file);
    auto restored = ReadSnapshot(path, opt);
    ASSERT_FALSE(restored.ok()) << forged.field;
    EXPECT_EQ(restored.status().code(), Status::Code::kIOError)
        << forged.field << ": " << restored.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, MismatchedOptionsAreRefusedNotServed) {
  // A snapshot restored under a different epsilon would serve densities
  // whose certificates belong to another threshold grid; the answer
  // cross-check refuses it instead.
  const NodeId kNodes = 40;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 500, 80, 3);
  DynamicDensestOptions wrote;
  wrote.epsilon = 0.75;
  auto engine = DynamicDensest::Create(kNodes, wrote);
  ASSERT_TRUE(engine.ok());
  for (const EdgeUpdate& u : workload) (*engine)->Apply(u);
  const std::string path = TempPath("options");
  ASSERT_TRUE(WriteSnapshot(path, **engine, workload.size()).ok());

  DynamicDensestOptions other = wrote;
  other.epsilon = 0.3;
  EXPECT_FALSE(ReadSnapshot(path, other).ok());
  // The matching options still restore fine.
  EXPECT_TRUE(ReadSnapshot(path, wrote).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, FailedWriteLeavesThePreviousSnapshotIntact) {
  if (!Failpoints::compiled_in()) {
    GTEST_SKIP() << "built with -DDENSEST_FAILPOINTS=OFF";
  }
  const NodeId kNodes = 40;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 500, 80, 7);
  DynamicDensestOptions opt;
  auto engine = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(engine.ok());
  const size_t kCut = workload.size() / 3;
  for (size_t i = 0; i < kCut; ++i) (*engine)->Apply(workload[i]);
  const std::string path = TempPath("atomic");
  ASSERT_TRUE(WriteSnapshot(path, **engine, kCut).ok());

  // The next snapshot dies mid-write; thanks to temp-file + rename the
  // previous one must still be on disk, whole and restorable.
  for (size_t i = kCut; i < workload.size(); ++i) (*engine)->Apply(workload[i]);
  ASSERT_TRUE(Failpoints::Instance().Set("snapshot.write", "after=0").ok());
  EXPECT_EQ(WriteSnapshot(path, **engine, workload.size()).code(),
            Status::Code::kIOError);
  Failpoints::Instance().ClearAll();

  auto restored = ReadSnapshot(path, opt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->cursor, kCut);  // the OLD snapshot, not the torn new one
  std::remove(path.c_str());
}

TEST(SnapshotTest, RestoreValidatesDecodedStateInternally) {
  // FromSnapshotState rejects inconsistent pieces outright.
  DynamicDensestOptions opt;
  std::vector<std::vector<NodeId>> asym(3);
  asym[0] = {1};
  // missing the mirror entry 1 -> 0
  EXPECT_FALSE(DynamicDensest::FromSnapshotState(
                   3, opt, std::move(asym), 0,
                   {std::vector<uint16_t>(3, 0)}, 0, DynamicDensestStats{},
                   DynamicDensest::OverloadState{})
                   .ok());
  std::vector<std::vector<NodeId>> self(2);
  self[1] = {1};  // self-loop
  EXPECT_FALSE(DynamicDensest::FromSnapshotState(
                   2, opt, std::move(self), 0,
                   {std::vector<uint16_t>(2, 0)}, 0, DynamicDensestStats{},
                   DynamicDensest::OverloadState{})
                   .ok());
  std::vector<std::vector<NodeId>> empty_adj(2);
  // levels above the ladder
  EXPECT_FALSE(DynamicDensest::FromSnapshotState(
                   2, opt, std::move(empty_adj), 0,
                   {std::vector<uint16_t>(2, 60000)}, 0,
                   DynamicDensestStats{}, DynamicDensest::OverloadState{})
                   .ok());
}

TEST(SnapshotTest, RestoreRejectsOutOfRangeOverloadState) {
  // A checksum is no authenticator: a snapshot can carry overload values
  // the engine never reaches. A cancel_streak past the cap would shift the
  // deadline by 64+ bits on the next recompute; a negative, infinite or
  // NaN certificate, or one captured after more inserts than were ever
  // applied, would serve an unsound stale band.
  DynamicDensestOptions opt;
  DynamicDensestStats stats;
  stats.inserts = 5;
  auto restore = [&](const DynamicDensest::OverloadState& overload) {
    return DynamicDensest::FromSnapshotState(
        2, opt, std::vector<std::vector<NodeId>>(2), 0,
        {std::vector<uint16_t>(2, 0)}, 0, stats, overload);
  };
  DynamicDensest::OverloadState at_cap;
  at_cap.pending = true;
  at_cap.cancel_streak = DynamicDensest::kMaxCancelStreak;
  at_cap.last_cert_upper = 3.0;
  at_cap.last_cert_inserts = stats.inserts;
  EXPECT_TRUE(restore(at_cap).ok());

  for (uint32_t streak : {DynamicDensest::kMaxCancelStreak + 1, 64u, 200u}) {
    DynamicDensest::OverloadState bad = at_cap;
    bad.cancel_streak = streak;
    auto r = restore(bad);
    ASSERT_FALSE(r.ok()) << "cancel_streak=" << streak;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  }
  for (double upper : {-1.0, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    DynamicDensest::OverloadState bad = at_cap;
    bad.last_cert_upper = upper;
    auto r = restore(bad);
    ASSERT_FALSE(r.ok()) << "last_cert_upper=" << upper;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  }
  DynamicDensest::OverloadState bad = at_cap;
  bad.last_cert_inserts = stats.inserts + 1;
  auto r = restore(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace densest

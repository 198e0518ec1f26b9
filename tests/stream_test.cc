// Unit tests for the streaming substrate: memory streams, binary file
// streams, generator streams' read spellings, pass accounting.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/algorithm1.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "stream/file_stream.h"
#include "stream/generated_stream.h"
#include "stream/memory_stream.h"
#include "stream/pass_stats.h"

namespace densest {
namespace {

EdgeList PathGraph(NodeId n) {
  EdgeList e(n);
  for (NodeId i = 0; i + 1 < n; ++i) e.Add(i, i + 1);
  return e;
}

std::set<std::pair<NodeId, NodeId>> Drain(EdgeStream& s) {
  std::set<std::pair<NodeId, NodeId>> seen;
  s.Reset();
  Edge e;
  while (s.Next(&e)) {
    NodeId a = std::min(e.u, e.v), b = std::max(e.u, e.v);
    seen.insert({a, b});
  }
  return seen;
}

TEST(EdgeListStreamTest, YieldsAllEdgesEachPass) {
  EdgeList el = PathGraph(5);
  EdgeListStream s(el);
  EXPECT_EQ(s.num_nodes(), 5u);
  EXPECT_EQ(s.SizeHint(), 4u);
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(Drain(s).size(), 4u);
  }
}

TEST(UndirectedGraphStreamTest, EmitsEachEdgeOnce) {
  GraphBuilder b;
  b.Add(0, 1);
  b.Add(1, 2);
  b.Add(0, 2);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream s(g);
  auto seen = Drain(s);
  EXPECT_EQ(seen.size(), 3u);
  // Second pass gives identical content.
  EXPECT_EQ(Drain(s), seen);
}

TEST(DirectedGraphStreamTest, EmitsEachArcOnce) {
  GraphBuilder b;
  b.Add(0, 1);
  b.Add(1, 0);
  b.Add(1, 2);
  DirectedGraph g = std::move(b.BuildDirected()).value();
  DirectedGraphStream s(g);
  s.Reset();
  Edge e;
  int count = 0;
  while (s.Next(&e)) ++count;
  EXPECT_EQ(count, 3);
}

TEST(CountingEdgeStreamTest, CountsPassesAndEdges) {
  EdgeList el = PathGraph(6);
  EdgeListStream inner(el);
  PassStats stats;
  CountingEdgeStream s(inner, stats);
  Drain(s);
  Drain(s);
  EXPECT_EQ(stats.passes, 2u);
  EXPECT_EQ(stats.edges_scanned, 10u);
  EXPECT_NE(stats.ToString().find("passes=2"), std::string::npos);
}

class BinaryFileStreamTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(BinaryFileStreamTest, UnweightedRoundTrip) {
  path_ = ::testing::TempDir() + "/edges_unweighted.bin";
  EdgeList el = PathGraph(100);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());

  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->num_nodes(), 100u);
  EXPECT_EQ((*stream)->SizeHint(), 99u);

  for (int pass = 0; pass < 2; ++pass) {
    (*stream)->Reset();
    Edge e;
    EdgeId count = 0;
    while ((*stream)->Next(&e)) {
      EXPECT_EQ(e.v, e.u + 1);
      EXPECT_DOUBLE_EQ(e.w, 1.0);
      ++count;
    }
    EXPECT_EQ(count, 99u);
  }
}

TEST_F(BinaryFileStreamTest, WeightedRoundTrip) {
  path_ = ::testing::TempDir() + "/edges_weighted.bin";
  EdgeList el(3);
  el.Add(0, 1, 2.5);
  el.Add(1, 2, 0.25);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/true).ok());

  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  (*stream)->Reset();
  Edge e;
  ASSERT_TRUE((*stream)->Next(&e));
  EXPECT_DOUBLE_EQ(e.w, 2.5);
  ASSERT_TRUE((*stream)->Next(&e));
  EXPECT_DOUBLE_EQ(e.w, 0.25);
  EXPECT_FALSE((*stream)->Next(&e));
}

TEST_F(BinaryFileStreamTest, OpenMissingFileFails) {
  auto stream = BinaryFileEdgeStream::Open("/nonexistent/nope.bin");
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), Status::Code::kIOError);
}

TEST_F(BinaryFileStreamTest, BadMagicRejected) {
  path_ = ::testing::TempDir() + "/garbage.bin";
  FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "this is not an edge file";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(BinaryFileStreamTest, TruncatedFileSurfacesIOError) {
  // A file whose header promises more edges than its body holds used to
  // end the pass silently — a wrong (but plausible) density downstream.
  path_ = ::testing::TempDir() + "/edges_truncated.bin";
  EdgeList el = PathGraph(2000);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  // Chop off the last 500 records plus half a record.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 500 * 8 - 3);

  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE((*stream)->status().ok());

  (*stream)->Reset();
  Edge e;
  EdgeId count = 0;
  while ((*stream)->Next(&e)) ++count;
  EXPECT_LT(count, 1999u);
  const Status io = (*stream)->status();
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.code(), Status::Code::kIOError);
  EXPECT_NE(io.message().find("truncated"), std::string::npos) << io.ToString();

  // The error is sticky across passes: the file stays bad.
  (*stream)->Reset();
  EXPECT_FALSE((*stream)->status().ok());
}

TEST_F(BinaryFileStreamTest, TruncationSurfacesThroughBatchPath) {
  path_ = ::testing::TempDir() + "/edges_truncated_batch.bin";
  EdgeList el = PathGraph(3000);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  std::filesystem::resize_file(path_,
                               std::filesystem::file_size(path_) - 1000 * 8);

  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  (*stream)->Reset();
  std::vector<Edge> buf(512);
  EdgeId total = 0;
  for (;;) {
    size_t got = (*stream)->NextBatch(buf.data(), buf.size());
    if (got == 0) break;
    total += got;
  }
  EXPECT_EQ(total, 2999u - 1000u);
  EXPECT_EQ((*stream)->status().code(), Status::Code::kIOError);
}

TEST_F(BinaryFileStreamTest, AlgorithmsAbortOnTruncatedFile) {
  // The full path of the bug: RunAlgorithm1 on a truncated stream must
  // return the IOError instead of a density computed from a partial pass.
  path_ = ::testing::TempDir() + "/edges_truncated_run.bin";
  EdgeList el = PathGraph(4000);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  std::filesystem::resize_file(path_,
                               std::filesystem::file_size(path_) - 800 * 8);

  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  Algorithm1Options opt;
  opt.epsilon = 0.5;
  auto r = RunAlgorithm1(**stream, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kIOError);
}

TEST_F(BinaryFileStreamTest, ExactFinalRecordIsNotAnError) {
  // The final fread may be short without being a truncation: the last
  // buffer of a well-formed file usually is. Guard against regressing the
  // clean-EOF path while detecting real truncation.
  path_ = ::testing::TempDir() + "/edges_exact.bin";
  EdgeList el = PathGraph(1234);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  for (int pass = 0; pass < 3; ++pass) {
    (*stream)->Reset();
    Edge e;
    EdgeId count = 0;
    while ((*stream)->Next(&e)) ++count;
    EXPECT_EQ(count, 1233u);
    EXPECT_TRUE((*stream)->status().ok());
  }
}

TEST_F(BinaryFileStreamTest, TracksBytesRead) {
  path_ = ::testing::TempDir() + "/edges_bytes.bin";
  EdgeList el = PathGraph(1000);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, false).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  Edge e;
  (*stream)->Reset();
  while ((*stream)->Next(&e)) {
  }
  EXPECT_GE((*stream)->bytes_read(), 999u * 8);
}

// ---- Every read spelling of every stream yields the same sequence. ----

/// One pass read only through NextView.
std::vector<Edge> ViewPass(EdgeStream& s) {
  s.Reset();
  std::vector<Edge> out;
  std::vector<Edge> scratch(4096);
  for (std::span<const Edge> view = s.NextView(scratch.data(), 4096);
       !view.empty(); view = s.NextView(scratch.data(), 4096)) {
    out.insert(out.end(), view.begin(), view.end());
  }
  return out;
}

/// One pass that cycles through Next, NextBatch at caps 1, 3 and 4096, and
/// NextView at cap 5. Any call returning nothing ends the pass, so a
/// spelling that returned nothing mid-stream would show as a short pass.
std::vector<Edge> MixedPass(EdgeStream& s) {
  s.Reset();
  std::vector<Edge> out;
  std::vector<Edge> buf(4096);
  for (int step = 0;; ++step) {
    size_t got = 0;
    switch (step % 5) {
      case 0:
        got = s.Next(buf.data()) ? 1 : 0;
        break;
      case 1:
        got = s.NextBatch(buf.data(), 1);
        break;
      case 2:
        got = s.NextBatch(buf.data(), 3);
        break;
      case 3:
        got = s.NextBatch(buf.data(), 4096);
        break;
      default: {
        std::span<const Edge> view = s.NextView(buf.data(), 5);
        std::copy(view.begin(), view.end(), buf.begin());
        got = view.size();
      }
    }
    if (got == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + got);
  }
  return out;
}

/// Checks one stream kind: a fresh stream read view-first and one read
/// mixed-first (so generator caches record under either spelling), two
/// passes each way, all equal to `expected` when given.
void ExpectSpellingsAgree(const std::function<std::unique_ptr<EdgeStream>()>&
                              make,
                          const std::vector<Edge>* expected = nullptr) {
  std::unique_ptr<EdgeStream> a = make();
  const std::vector<Edge> reference = ViewPass(*a);
  if (expected != nullptr) {
    EXPECT_EQ(reference, *expected);
  }
  EXPECT_EQ(MixedPass(*a), reference);
  EXPECT_EQ(MixedPass(*a), reference);
  EXPECT_EQ(ViewPass(*a), reference);
  EXPECT_TRUE(a->status().ok());

  std::unique_ptr<EdgeStream> b = make();
  EXPECT_EQ(MixedPass(*b), reference);
  EXPECT_EQ(ViewPass(*b), reference);
  EXPECT_EQ(MixedPass(*b), reference);
  EXPECT_TRUE(b->status().ok());
}

/// A weighted edge list with distinct non-unit weights.
EdgeList WeightedGnm(NodeId n, EdgeId m, uint64_t seed) {
  EdgeList plain = ErdosRenyiGnm(n, m, seed);
  EdgeList weighted(n);
  Rng rng(seed + 1);
  for (const Edge& e : plain.edges()) {
    weighted.Add(e.u, e.v, 0.5 + rng.UniformDouble());
  }
  return weighted;
}

TEST(ReadSpellingsTest, MemoryStreams) {
  const EdgeList el = WeightedGnm(3000, 20000, 5);
  ExpectSpellingsAgree(
      [&] { return std::make_unique<EdgeListStream>(el); }, &el.edges());
  const EdgeList empty(10);
  ExpectSpellingsAgree(
      [&] { return std::make_unique<EdgeListStream>(empty); }, &empty.edges());

  GraphBuilder b;
  for (const Edge& e : el.edges()) b.Add(e.u, e.v, e.w);
  const UndirectedGraph ug = std::move(b.BuildUndirected()).value();
  const DirectedGraph dg = std::move(b.BuildDirected()).value();
  ExpectSpellingsAgree(
      [&] { return std::make_unique<UndirectedGraphStream>(ug); });
  ExpectSpellingsAgree(
      [&] { return std::make_unique<DirectedGraphStream>(dg); });
}

TEST_F(BinaryFileStreamTest, ReadSpellingsAgree) {
  // More records than one 1 MiB read buffer holds, so reads of every cap
  // straddle a refill.
  const EdgeList el = WeightedGnm(50000, 150000, 9);
  for (bool weighted : {false, true}) {
    path_ = ::testing::TempDir() + "/edges_spellings.bin";
    ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, weighted).ok());
    std::vector<Edge> expected = el.edges();
    if (!weighted) {
      for (Edge& e : expected) e.w = 1.0;
    }
    ExpectSpellingsAgree(
        [&]() -> std::unique_ptr<EdgeStream> {
          auto s = BinaryFileEdgeStream::Open(path_);
          EXPECT_TRUE(s.ok());
          return std::move(*s);
        },
        &expected);
  }
}

TEST(ReadSpellingsTest, GeneratorStreams) {
  ExpectSpellingsAgree(
      [] { return std::make_unique<GnpEdgeStream>(2000, 0.01, 3); });
  ExpectSpellingsAgree(
      [] { return std::make_unique<CirculantEdgeStream>(5000, 8); });
}

TEST(ReadSpellingsTest, CountingStreamCountsEverySpelling) {
  const EdgeList el = WeightedGnm(3000, 20000, 7);
  GraphBuilder b;
  for (const Edge& e : el.edges()) b.Add(e.u, e.v, e.w);
  const UndirectedGraph ug = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream inner(ug);
  PassStats stats;
  ExpectSpellingsAgree(
      [&] { return std::make_unique<CountingEdgeStream>(inner, stats); });
  // Seven passes, each counting every edge once, whichever spelling read it.
  EXPECT_EQ(stats.passes, 7u);
  EXPECT_EQ(stats.edges_scanned, 7 * ug.num_edges());
}

}  // namespace
}  // namespace densest

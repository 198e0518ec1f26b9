// Unit tests for the batched pass engine and the NextBatch stream contract:
// every stream type must produce exactly the same edge sequence through
// NextBatch as through repeated Next, and PassEngine results must be
// bit-identical regardless of thread count.

#include "core/pass_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/algorithm1.h"
#include "core/algorithm3.h"
#include "core/alive_kernel.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "stream/file_stream.h"
#include "stream/generated_stream.h"
#include "stream/memory_stream.h"

namespace densest {
namespace {

std::vector<Edge> DrainScalar(EdgeStream& s) {
  std::vector<Edge> out;
  s.Reset();
  Edge e;
  while (s.Next(&e)) out.push_back(e);
  return out;
}

std::vector<Edge> DrainBatched(EdgeStream& s, size_t cap) {
  std::vector<Edge> out;
  std::vector<Edge> buf(cap);
  s.Reset();
  size_t got;
  while ((got = s.NextBatch(buf.data(), cap)) > 0) {
    out.insert(out.end(), buf.begin(), buf.begin() + got);
  }
  return out;
}

/// NextBatch must reproduce the Next sequence for a capacity that divides
/// the stream length unevenly (exercising the partial final batch), a
/// capacity of one, and a capacity larger than the whole stream.
void ExpectBatchMatchesScalar(EdgeStream& s) {
  const std::vector<Edge> scalar = DrainScalar(s);
  for (size_t cap : {size_t{1}, size_t{7}, scalar.size() + 13}) {
    EXPECT_EQ(DrainBatched(s, cap), scalar) << "cap=" << cap;
  }
  // The scalar path still works after batched passes (shared cursor).
  EXPECT_EQ(DrainScalar(s), scalar);
}

TEST(NextBatchContractTest, EdgeListStream) {
  EdgeList el = ErdosRenyiGnm(50, 200, 1);
  EdgeListStream s(el);
  ExpectBatchMatchesScalar(s);
}

TEST(NextBatchContractTest, EmptyEdgeListStream) {
  EdgeList el(5);
  EdgeListStream s(el);
  Edge buf[4];
  s.Reset();
  EXPECT_EQ(s.NextBatch(buf, 4), 0u);
  EXPECT_TRUE(DrainBatched(s, 4).empty());
}

TEST(NextBatchContractTest, UndirectedGraphStream) {
  GraphBuilder b;
  EdgeList el = ErdosRenyiGnm(40, 150, 2);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream s(g);
  ExpectBatchMatchesScalar(s);
}

TEST(NextBatchContractTest, UndirectedGraphStreamEmpty) {
  UndirectedGraph g;
  UndirectedGraphStream s(g);
  Edge buf[2];
  s.Reset();
  EXPECT_EQ(s.NextBatch(buf, 2), 0u);
}

TEST(NextBatchContractTest, DirectedGraphStream) {
  GraphBuilder b;
  EdgeList el = ErdosRenyiDirectedGnm(40, 150, 3);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v);
  DirectedGraph g = std::move(b.BuildDirected()).value();
  DirectedGraphStream s(g);
  ExpectBatchMatchesScalar(s);
}

TEST(NextBatchContractTest, WeightedGraphStreams) {
  GraphBuilder b;
  Rng rng(7);
  EdgeList el = ErdosRenyiGnm(30, 80, 4);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v, 0.5 + rng.UniformDouble());
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream s(g);
  ExpectBatchMatchesScalar(s);
}

class BinaryFileBatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(BinaryFileBatchTest, UnweightedFileStream) {
  path_ = ::testing::TempDir() + "/batch_unweighted.bin";
  EdgeList el = ErdosRenyiGnm(60, 300, 5);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  ExpectBatchMatchesScalar(**stream);
}

TEST_F(BinaryFileBatchTest, WeightedFileStream) {
  path_ = ::testing::TempDir() + "/batch_weighted.bin";
  EdgeList el(10);
  Rng rng(11);
  for (int i = 0; i < 57; ++i) {
    el.Add(static_cast<NodeId>(rng.UniformU64(10)),
           static_cast<NodeId>(rng.UniformU64(10)), rng.UniformDouble());
  }
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/true).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  ExpectBatchMatchesScalar(**stream);
}

TEST_F(BinaryFileBatchTest, EmptyFileStream) {
  path_ = ::testing::TempDir() + "/batch_empty.bin";
  EdgeList el(3);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  Edge buf[4];
  (*stream)->Reset();
  EXPECT_EQ((*stream)->NextBatch(buf, 4), 0u);
}

TEST(NextBatchContractTest, GnpEdgeStream) {
  GnpEdgeStream s(100, 0.08, 17);
  ExpectBatchMatchesScalar(s);
}

TEST(NextBatchContractTest, GnpEdgeStreamEmpty) {
  GnpEdgeStream s(100, 0.0, 17);
  Edge buf[4];
  s.Reset();
  EXPECT_EQ(s.NextBatch(buf, 4), 0u);
}

TEST(NextBatchContractTest, CirculantEdgeStream) {
  CirculantEdgeStream s(101, 6);
  ExpectBatchMatchesScalar(s);
}

// ---------------------------------------------------------------------------
// PassEngine determinism and correctness.

/// Reference scalar pass (the seed implementation, kept here as the oracle).
UndirectedPassResult ScalarUndirectedPass(EdgeStream& stream,
                                          const NodeSet& alive,
                                          std::vector<double>& degrees) {
  std::fill(degrees.begin(), degrees.end(), 0.0);
  UndirectedPassResult out;
  stream.Reset();
  Edge e;
  while (stream.Next(&e)) {
    if (alive.Contains(e.u) && alive.Contains(e.v)) {
      degrees[e.u] += e.w;
      degrees[e.v] += e.w;
      out.weight += e.w;
      ++out.edges;
    }
  }
  return out;
}

NodeSet EveryThirdDead(NodeId n) {
  NodeSet alive(n, /*full=*/true);
  for (NodeId u = 0; u < n; u += 3) alive.Remove(u);
  return alive;
}

TEST(PassEngineTest, MatchesScalarReferenceUnweighted) {
  const NodeId n = 500;
  EdgeList el = ErdosRenyiGnm(n, 4000, 23);
  EdgeListStream stream(el);
  NodeSet alive = EveryThirdDead(n);

  std::vector<double> want(n), got(n);
  UndirectedPassResult ref = ScalarUndirectedPass(stream, alive, want);

  PassEngine engine(PassEngineOptions{.num_threads = 1});
  UndirectedPassResult r = engine.RunUndirected(stream, alive, got);
  EXPECT_EQ(r.edges, ref.edges);
  EXPECT_EQ(r.weight, ref.weight);  // unit weights: sums are exact
  EXPECT_EQ(got, want);
}

TEST(PassEngineTest, UndirectedIdenticalAcrossThreadCounts) {
  const NodeId n = 400;
  // Random weights: float addition order would show up immediately if the
  // sharded reduction depended on the thread count.
  EdgeList el = ErdosRenyiGnm(n, 5000, 31);
  Rng rng(43);
  for (Edge& e : el.mutable_edges()) e.w = rng.UniformDouble();
  EdgeListStream stream(el);
  NodeSet alive = EveryThirdDead(n);

  PassEngine one(PassEngineOptions{.num_threads = 1});
  std::vector<double> deg1(n);
  UndirectedPassResult r1 = one.RunUndirected(stream, alive, deg1);

  for (size_t threads : {2u, 4u, 8u}) {
    PassEngine many(PassEngineOptions{.num_threads = threads});
    std::vector<double> degN(n);
    UndirectedPassResult rN = many.RunUndirected(stream, alive, degN);
    EXPECT_EQ(rN.edges, r1.edges) << threads;
    EXPECT_EQ(rN.weight, r1.weight) << threads;  // bit-identical, not NEAR
    EXPECT_EQ(degN, deg1) << threads;
  }
}

TEST(PassEngineTest, DirectedIdenticalAcrossThreadCounts) {
  const NodeId n = 300;
  EdgeList el = ErdosRenyiDirectedGnm(n, 4000, 37);
  Rng rng(51);
  for (Edge& e : el.mutable_edges()) e.w = rng.UniformDouble();
  EdgeListStream stream(el);
  NodeSet s = EveryThirdDead(n);
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 1; u < n; u += 5) t.Remove(u);

  PassEngine one(PassEngineOptions{.num_threads = 1});
  std::vector<double> out1(n), in1(n);
  DirectedPassResult r1 = one.RunDirected(stream, s, t, out1, in1);
  EXPECT_GT(r1.arcs, 0u);

  for (size_t threads : {2u, 4u}) {
    PassEngine many(PassEngineOptions{.num_threads = threads});
    std::vector<double> outN(n), inN(n);
    DirectedPassResult rN = many.RunDirected(stream, s, t, outN, inN);
    EXPECT_EQ(rN.arcs, r1.arcs) << threads;
    EXPECT_EQ(rN.weight, r1.weight) << threads;
    EXPECT_EQ(outN, out1) << threads;
    EXPECT_EQ(inN, in1) << threads;
  }
}

TEST(PassEngineTest, CollectPreservesStreamOrder) {
  const NodeId n = 200;
  EdgeList el = ErdosRenyiGnm(n, 3000, 41);
  EdgeListStream stream(el);
  NodeSet alive = EveryThirdDead(n);

  // Expected survivors: the filtered stream in original order.
  std::vector<Edge> want;
  for (const Edge& e : el.edges()) {
    if (alive.Contains(e.u) && alive.Contains(e.v)) want.push_back(e);
  }

  for (size_t threads : {1u, 4u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<double> degrees(n);
    std::vector<Edge> survivors;
    UndirectedPassResult r =
        engine.RunUndirectedCollect(stream, alive, degrees, &survivors);
    EXPECT_EQ(r.edges, want.size()) << threads;
    EXPECT_EQ(survivors, want) << threads;
  }
}

TEST(PassEngineTest, BufferPassCompactsInPlace) {
  const NodeId n = 200;
  EdgeList el = ErdosRenyiGnm(n, 3000, 47);
  NodeSet alive = EveryThirdDead(n);

  std::vector<Edge> want;
  for (const Edge& e : el.edges()) {
    if (alive.Contains(e.u) && alive.Contains(e.v)) want.push_back(e);
  }

  for (size_t threads : {1u, 4u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<Edge> buffer = el.edges();
    std::vector<double> degrees(n);
    UndirectedPassResult r =
        engine.RunUndirectedBuffer(buffer, alive, degrees, /*compact=*/true);
    EXPECT_EQ(r.edges, want.size()) << threads;
    EXPECT_EQ(buffer, want) << threads;

    // A second pass over the compacted buffer sees the same statistics.
    std::vector<double> degrees2(n);
    UndirectedPassResult r2 =
        engine.RunUndirectedBuffer(buffer, alive, degrees2, /*compact=*/false);
    EXPECT_EQ(r2.edges, r.edges);
    EXPECT_EQ(degrees2, degrees);
  }
}

TEST(PassEngineTest, AlgorithmsIdenticalAcrossInjectedEngines) {
  // Algorithm-level determinism: private engines with different thread
  // counts must produce identical node sets and densities.
  EdgeList el = ErdosRenyiGnm(300, 3000, 77);
  EdgeListStream stream(el);

  PassEngine one(PassEngineOptions{.num_threads = 1});
  PassEngine four(PassEngineOptions{.num_threads = 4});

  Algorithm1Options a1;
  a1.engine = &one;
  auto r1 = RunAlgorithm1(stream, a1);
  a1.engine = &four;
  auto r4 = RunAlgorithm1(stream, a1);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r1->nodes, r4->nodes);
  EXPECT_EQ(r1->density, r4->density);
  EXPECT_EQ(r1->passes, r4->passes);

  EdgeList arcs = ErdosRenyiDirectedGnm(200, 2000, 78);
  EdgeListStream arc_stream(arcs);
  Algorithm3Options a3;
  a3.engine = &one;
  auto d1 = RunAlgorithm3(arc_stream, a3);
  a3.engine = &four;
  auto d4 = RunAlgorithm3(arc_stream, a3);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d4.ok());
  EXPECT_EQ(d1->s_nodes, d4->s_nodes);
  EXPECT_EQ(d1->t_nodes, d4->t_nodes);
  EXPECT_EQ(d1->density, d4->density);
}

TEST(PassEngineTest, EmptyStreamYieldsZeroes) {
  EdgeList el(10);
  EdgeListStream stream(el);
  NodeSet alive(10, /*full=*/true);
  std::vector<double> degrees(10, 99.0);
  PassEngine engine(PassEngineOptions{.num_threads = 2});
  UndirectedPassResult r = engine.RunUndirected(stream, alive, degrees);
  EXPECT_EQ(r.edges, 0u);
  EXPECT_EQ(r.weight, 0.0);
  for (double d : degrees) EXPECT_EQ(d, 0.0);
}

TEST(PassEngineTest, MultiRoundStreamsSpanRounds) {
  // More edges than one round (kShardSlots * kShardEdges) to cover the
  // refill path and cross-round accumulator reuse.
  const size_t round = PassEngine::kShardSlots * PassEngine::kShardEdges;
  const NodeId n = 1000;
  EdgeList el(n);
  Rng rng(61);
  for (size_t i = 0; i < round + round / 3; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(n));
    NodeId v = static_cast<NodeId>(rng.UniformU64(n));
    el.Add(u, v);
  }
  EdgeListStream stream(el);
  NodeSet alive = EveryThirdDead(n);

  std::vector<double> want(n), got(n);
  UndirectedPassResult ref = ScalarUndirectedPass(stream, alive, want);
  PassEngine engine(PassEngineOptions{.num_threads = 4});
  UndirectedPassResult r = engine.RunUndirected(stream, alive, got);
  EXPECT_EQ(r.edges, ref.edges);
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Alive-first kernel: every shard length around the filter block and the
// engine shard, every alive regime, bit-identical to a one-edge-at-a-time
// filter loop.

/// Shard lengths at the kernel's block boundaries and past one engine shard.
std::vector<size_t> KernelLengths() {
  const size_t block = kAliveBlock;
  return {0, 1, block - 1, block, block + 1, PassEngine::kShardEdges + 7};
}

enum class AliveShape { kAllDead, kAllAlive, kAlternating, kSparse };

std::string ShapeName(AliveShape shape) {
  switch (shape) {
    case AliveShape::kAllDead:
      return "all-dead";
    case AliveShape::kAllAlive:
      return "all-alive";
    case AliveShape::kAlternating:
      return "alternating";
    case AliveShape::kSparse:
      return "sparse-30%";
  }
  return "?";
}

/// Weighted edges over n nodes plus an alive set of the given shape. For
/// kAlternating the alive set is the even nodes and edge i joins two even
/// nodes exactly when i is even, so survivors and dead edges alternate.
struct KernelCase {
  std::vector<Edge> edges;
  NodeSet alive;
};

KernelCase MakeKernelCase(size_t length, AliveShape shape, NodeId n,
                          uint64_t seed) {
  Rng rng(seed);
  KernelCase c;
  c.alive = NodeSet(n, /*full=*/shape == AliveShape::kAllAlive);
  if (shape == AliveShape::kAlternating) {
    for (NodeId u = 0; u < n; u += 2) c.alive.Insert(u);
  } else if (shape == AliveShape::kSparse) {
    for (NodeId u = 0; u < n; ++u) {
      if (rng.UniformDouble() < 0.3) c.alive.Insert(u);
    }
  }
  for (size_t i = 0; i < length; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(n));
    NodeId v = static_cast<NodeId>(rng.UniformU64(n));
    if (shape == AliveShape::kAlternating) {
      u &= ~NodeId{1};
      v = (v & ~NodeId{1}) | static_cast<NodeId>(i & 1);
    }
    c.edges.push_back(Edge{u, v, 0.25 + rng.UniformDouble()});
  }
  return c;
}

/// Reference filter loop: one edge at a time, in stream order.
/// Directed when `t` is non-null (u in alive, v in *t; out/in planes),
/// undirected otherwise (both endpoints into `deg`).
DirectedPassResult ScalarShard(const std::vector<Edge>& edges,
                               const NodeSet& alive, const NodeSet* t,
                               std::vector<double>& deg,
                               std::vector<double>& in,
                               std::vector<Edge>* survivors) {
  DirectedPassResult r;
  const NodeSet& head_set = t != nullptr ? *t : alive;
  std::vector<double>& head_deg = t != nullptr ? in : deg;
  for (const Edge& e : edges) {
    if (!alive.Contains(e.u) || !head_set.Contains(e.v)) continue;
    deg[e.u] += e.w;
    head_deg[e.v] += e.w;
    r.weight += e.w;
    ++r.arcs;
    if (survivors != nullptr) survivors->push_back(e);
  }
  return r;
}

const AliveShape kShapes[] = {AliveShape::kAllDead, AliveShape::kAllAlive,
                              AliveShape::kAlternating, AliveShape::kSparse};

TEST(AliveKernelTest, UndirectedShardMatchesScalarLoop) {
  const NodeId n = 700;
  for (size_t length : KernelLengths()) {
    for (AliveShape shape : kShapes) {
      const std::string label =
          ShapeName(shape) + " length=" + std::to_string(length);
      KernelCase c = MakeKernelCase(length, shape, n, 100 + length);
      std::vector<double> want(n, 0.0), unused(n, 0.0);
      std::vector<Edge> want_survivors;
      const DirectedPassResult ref =
          ScalarShard(c.edges, c.alive, nullptr, want, unused,
                      &want_survivors);
      if (shape == AliveShape::kAllDead) {
        EXPECT_EQ(ref.arcs, 0u) << label;
      } else if (shape == AliveShape::kAllAlive) {
        EXPECT_EQ(ref.arcs, length) << label;
      } else if (shape == AliveShape::kAlternating) {
        EXPECT_EQ(ref.arcs, (length + 1) / 2) << label;
      }

      std::vector<double> got(n, 0.0);
      std::vector<Edge> survivors;
      const UndirectedPassResult r = AccumulateUndirectedShard(
          c.edges, c.alive, got.data(), AppendSurvivors{&survivors});
      EXPECT_EQ(r.edges, ref.arcs) << label;
      EXPECT_EQ(r.weight, ref.weight) << label;  // bits, not NEAR
      EXPECT_EQ(got, want) << label;
      EXPECT_EQ(survivors, want_survivors) << label;

      // In-place compaction leaves the survivors, in order, at the front.
      std::vector<Edge> buffer = c.edges;
      std::vector<double> compacted(n, 0.0);
      size_t kept = 0;
      const UndirectedPassResult rc = AccumulateUndirectedShard(
          buffer, c.alive, compacted.data(),
          [&](const Edge& e) { buffer[kept++] = e; });
      buffer.resize(kept);
      EXPECT_EQ(rc.weight, ref.weight) << label;
      EXPECT_EQ(compacted, want) << label;
      EXPECT_EQ(buffer, want_survivors) << label;
    }
  }
}

TEST(AliveKernelTest, DirectedShardMatchesScalarLoop) {
  const NodeId n = 700;
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 1; u < n; u += 3) t.Remove(u);
  for (size_t length : KernelLengths()) {
    for (AliveShape shape : kShapes) {
      const std::string label =
          ShapeName(shape) + " length=" + std::to_string(length);
      KernelCase c = MakeKernelCase(length, shape, n, 200 + length);
      std::vector<double> want_out(n, 0.0), want_in(n, 0.0);
      const DirectedPassResult ref =
          ScalarShard(c.edges, c.alive, &t, want_out, want_in, nullptr);
      std::vector<double> out(n, 0.0), in(n, 0.0);
      const DirectedPassResult r = AccumulateDirectedShard(
          c.edges, c.alive, t, out.data(), in.data());
      EXPECT_EQ(r.arcs, ref.arcs) << label;
      EXPECT_EQ(r.weight, ref.weight) << label;
      EXPECT_EQ(out, want_out) << label;
      EXPECT_EQ(in, want_in) << label;
    }
  }
}

/// Scalar replica of the engine's slotted schedule over an edge list:
/// kShardEdges-edge shards, shard i of a round into slot i, each shard's
/// totals added to its slot's, slots reduced in index order.
DirectedPassResult SlottedReference(const std::vector<Edge>& edges,
                                    const NodeSet& alive, const NodeSet* t,
                                    NodeId n, std::vector<double>& deg,
                                    std::vector<double>& in) {
  constexpr size_t kSlots = PassEngine::kShardSlots;
  std::vector<std::vector<double>> deg_slots(kSlots,
                                             std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> in_slots = deg_slots;
  std::vector<double> slot_weight(kSlots, 0.0);
  std::vector<EdgeId> slot_count(kSlots, 0);
  for (size_t start = 0, shard = 0; start < edges.size();
       start += PassEngine::kShardEdges, ++shard) {
    const size_t end = std::min(edges.size(), start + PassEngine::kShardEdges);
    const std::vector<Edge> piece(edges.begin() + start, edges.begin() + end);
    const size_t slot = shard % kSlots;
    const DirectedPassResult r = ScalarShard(
        piece, alive, t, deg_slots[slot], in_slots[slot], nullptr);
    slot_weight[slot] += r.weight;
    slot_count[slot] += r.arcs;
  }
  DirectedPassResult out;
  for (size_t s = 0; s < kSlots; ++s) {
    out.weight += slot_weight[s];
    out.arcs += slot_count[s];
  }
  deg.assign(n, 0.0);
  in.assign(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    for (size_t s = 0; s < kSlots; ++s) {
      deg[u] += deg_slots[s][u];
      in[u] += in_slots[s][u];
    }
  }
  return out;
}

/// Lengths for whole engine passes: the kernel lengths plus one that spills
/// into a second round.
std::vector<size_t> PassLengths() {
  std::vector<size_t> lengths = KernelLengths();
  lengths.push_back(PassEngine::kShardSlots * PassEngine::kShardEdges + 7);
  return lengths;
}

TEST(AliveKernelTest, WeightedPassesMatchSlottedReferenceAtAnyThreadCount) {
  const NodeId n = 900;
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 2; u < n; u += 4) t.Remove(u);
  std::vector<std::unique_ptr<PassEngine>> engines;
  for (size_t threads : {1u, 2u, 4u}) {
    engines.push_back(std::make_unique<PassEngine>(
        PassEngineOptions{.num_threads = threads}));
  }
  for (size_t length : PassLengths()) {
    for (AliveShape shape : kShapes) {
      KernelCase c = MakeKernelCase(length, shape, n, 300 + length);
      EdgeList el(n);
      for (const Edge& e : c.edges) el.Add(e.u, e.v, e.w);
      EdgeListStream stream(el);
      std::vector<double> want, unused, want_out, want_in;
      const DirectedPassResult ref =
          SlottedReference(c.edges, c.alive, nullptr, n, want, unused);
      const DirectedPassResult dref =
          SlottedReference(c.edges, c.alive, &t, n, want_out, want_in);
      for (const auto& engine : engines) {
        const std::string label =
            ShapeName(shape) + " length=" + std::to_string(length) +
            " threads=" + std::to_string(engine->num_threads());
        std::vector<double> deg(n, -1.0);
        const UndirectedPassResult r =
            engine->RunUndirected(stream, c.alive, deg);
        EXPECT_EQ(r.edges, ref.arcs) << label;
        EXPECT_EQ(r.weight, ref.weight) << label;
        EXPECT_EQ(deg, want) << label;

        std::vector<double> out(n, -1.0), in(n, -1.0);
        const DirectedPassResult d =
            engine->RunDirected(stream, c.alive, t, out, in);
        EXPECT_EQ(d.arcs, dref.arcs) << label;
        EXPECT_EQ(d.weight, dref.weight) << label;
        EXPECT_EQ(out, want_out) << label;
        EXPECT_EQ(in, want_in) << label;
      }
    }
  }
}

TEST(AliveKernelTest, CollectAndBufferPassesKeepStreamOrder) {
  const NodeId n = 900;
  for (size_t length : PassLengths()) {
    for (AliveShape shape : kShapes) {
      KernelCase c = MakeKernelCase(length, shape, n, 400 + length);
      std::vector<Edge> want;
      for (const Edge& e : c.edges) {
        if (c.alive.Contains(e.u) && c.alive.Contains(e.v)) want.push_back(e);
      }
      std::vector<double> ref_deg, unused;
      const DirectedPassResult ref =
          SlottedReference(c.edges, c.alive, nullptr, n, ref_deg, unused);
      for (bool weighted : {true, false}) {
        EdgeList el(n);
        for (const Edge& e : c.edges) el.Add(e.u, e.v, weighted ? e.w : 1.0);
        EdgeListStream stream(el);
        std::vector<Edge> want_edges = want;
        if (!weighted) {
          for (Edge& e : want_edges) e.w = 1.0;
        }
        for (size_t threads : {1u, 4u}) {
          const std::string label =
              ShapeName(shape) + " length=" + std::to_string(length) +
              " threads=" + std::to_string(threads) +
              (weighted ? " weighted" : " unit");
          PassEngine engine(PassEngineOptions{.num_threads = threads});
          std::vector<double> deg(n);
          std::vector<Edge> survivors;
          const UndirectedPassResult r =
              engine.RunUndirectedCollect(stream, c.alive, deg, &survivors);
          EXPECT_EQ(r.edges, want.size()) << label;
          EXPECT_EQ(survivors, want_edges) << label;

          std::vector<Edge> buffer = el.edges();
          std::vector<double> buffer_deg(n);
          const UndirectedPassResult b = engine.RunUndirectedBuffer(
              buffer, c.alive, buffer_deg, /*compact=*/true);
          EXPECT_EQ(b.edges, want.size()) << label;
          EXPECT_EQ(buffer, want_edges) << label;
          if (weighted) {
            // The buffer pass runs the slotted schedule at every thread
            // count, so its weighted sums match the reference bit for bit.
            EXPECT_EQ(b.weight, ref.weight) << label;
            EXPECT_EQ(buffer_deg, ref_deg) << label;
          }
        }
      }
    }
  }
}

TEST(AliveKernelTest, ForEachAliveEdgeVisitsSurvivorsInOrder) {
  const NodeId n = 900;
  const size_t length = PassEngine::kShardSlots * PassEngine::kShardEdges + 7;
  KernelCase c = MakeKernelCase(length, AliveShape::kSparse, n, 501);
  EdgeList el(n);
  for (const Edge& e : c.edges) el.Add(e.u, e.v, e.w);
  EdgeListStream stream(el);
  std::vector<Edge> want;
  for (const Edge& e : c.edges) {
    if (c.alive.Contains(e.u) && c.alive.Contains(e.v)) want.push_back(e);
  }
  PassEngine engine(PassEngineOptions{.num_threads = 1});
  std::vector<Edge> got;
  engine.ForEachAliveEdge(stream, c.alive,
                          [&](const Edge& e) { got.push_back(e); });
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace densest

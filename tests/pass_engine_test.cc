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
  const size_t round = kShardSlots * kShardEdges;
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
  return {0, 1, block - 1, block, block + 1, kShardEdges + 7};
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
      const UndirectedPassResult r =
          AccumulateUndirectedShard(c.edges, c.alive, got.data());
      EXPECT_EQ(r.edges, ref.arcs) << label;
      EXPECT_EQ(r.weight, ref.weight) << label;  // bits, not NEAR
      EXPECT_EQ(got, want) << label;

      // The stream-order walk yields the survivors, in order.
      std::vector<Edge> survivors;
      VisitSurvivors(Shard{.edges = c.edges}, c.alive,
                     [&](const Edge& e) { survivors.push_back(e); });
      EXPECT_EQ(survivors, want_survivors) << label;
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
  constexpr size_t kSlots = kShardSlots;
  std::vector<std::vector<double>> deg_slots(kSlots,
                                             std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> in_slots = deg_slots;
  std::vector<double> slot_weight(kSlots, 0.0);
  std::vector<EdgeId> slot_count(kSlots, 0);
  for (size_t start = 0, shard = 0; start < edges.size();
       start += kShardEdges, ++shard) {
    const size_t end = std::min(edges.size(), start + kShardEdges);
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
  lengths.push_back(kShardSlots * kShardEdges + 7);
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

// ---------------------------------------------------------------------------
// The row fill and Drive itself: CSR row kernels, stream-order delivery on
// both fills, and Algorithm 1's in-memory passes.

/// Edges over n nodes with self-loops, weights multiples of 1/8 (dyadic, so
/// every sum is exact in any order) or, with dyadic false, arbitrary.
EdgeList LoopyEdges(NodeId n, size_t m, uint64_t seed, bool dyadic) {
  Rng rng(seed);
  EdgeList el(n);
  for (size_t i = 0; i < m; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformU64(n));
    const NodeId v =
        i % 17 == 0 ? u : static_cast<NodeId>(rng.UniformU64(n));
    el.Add(u, v,
           dyadic ? 0.125 * static_cast<double>(1 + rng.UniformU64(16))
                  : 0.25 + rng.UniformDouble());
  }
  return el;
}

/// Reference directed pass: one arc at a time, in stream order.
DirectedPassResult ScalarDirectedPass(EdgeStream& stream, const NodeSet& s,
                                      const NodeSet& t,
                                      std::vector<double>& out,
                                      std::vector<double>& in) {
  std::fill(out.begin(), out.end(), 0.0);
  std::fill(in.begin(), in.end(), 0.0);
  DirectedPassResult r;
  stream.Reset();
  Edge e;
  while (stream.Next(&e)) {
    if (!s.Contains(e.u) || !t.Contains(e.v)) continue;
    out[e.u] += e.w;
    in[e.v] += e.w;
    r.weight += e.w;
    ++r.arcs;
  }
  return r;
}

TEST(AliveKernelTest, RowKernelsMatchScalarEdgeLoop) {
  const NodeId n = 600;
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 2; u < n; u += 5) t.Remove(u);
  for (bool unit : {false, true}) {
    // Unit weights without self-loops take the unrolled kernel.
    EdgeList el = LoopyEdges(n, 9000, unit ? 601 : 602, /*dyadic=*/true);
    if (unit) {
      EdgeList plain(n);
      for (const Edge& e : el.edges()) {
        if (e.u != e.v) plain.Add(e.u, e.v);
      }
      el = plain;
    }
    const UndirectedGraph g = UndirectedGraph::FromEdgeList(el);
    const DirectedGraph dg = DirectedGraph::FromEdgeList(el);
    ASSERT_EQ(g.has_self_loops(), !unit);
    UndirectedGraphStream stream(g);
    DirectedGraphStream arc_stream(dg);
    for (AliveShape shape : kShapes) {
      const std::string label =
          ShapeName(shape) + (unit ? " unit" : " weighted-loops");
      const NodeSet alive = MakeKernelCase(0, shape, n, 603).alive;
      std::vector<double> want(n);
      const UndirectedPassResult ref =
          ScalarUndirectedPass(stream, alive, want);
      std::vector<double> want_out(n), want_in(n);
      const DirectedPassResult dref =
          ScalarDirectedPass(arc_stream, alive, t, want_out, want_in);

      // Two uneven row shards into two slots.
      const NodeId cut = n / 3;
      std::vector<double> deg(n, 0.0), out(n, 0.0), in(n, 0.0);
      SlotTotals totals, dtotals;
      AccumulateUndirected(Shard{.graph = &g, .begin = 0, .end = cut}, alive,
                           deg.data(), totals, 0);
      AccumulateUndirected(Shard{.graph = &g, .begin = cut, .end = n}, alive,
                           deg.data(), totals, 1);
      AccumulateDirected(Shard{.digraph = &dg, .begin = 0, .end = cut}, alive,
                         t, out.data(), in.data(), dtotals, 0);
      AccumulateDirected(Shard{.digraph = &dg, .begin = cut, .end = n}, alive,
                         t, out.data(), in.data(), dtotals, 1);
      const UndirectedPassResult r = totals.Undirected();
      EXPECT_EQ(r.edges, ref.edges) << label;
      EXPECT_EQ(r.weight, ref.weight) << label;
      EXPECT_EQ(deg, want) << label;
      const DirectedPassResult d = dtotals.Directed();
      EXPECT_EQ(d.arcs, dref.arcs) << label;
      EXPECT_EQ(d.weight, dref.weight) << label;
      EXPECT_EQ(out, want_out) << label;
      EXPECT_EQ(in, want_in) << label;
    }
  }
}

TEST(PassEngineTest, CsrPassesIdenticalAcrossThreadCounts) {
  // Arbitrary weights and self-loops: the row fill's slot schedule must
  // not depend on the thread count, bit for bit.
  const NodeId n = 3000;
  EdgeList el = LoopyEdges(n, 150000, 611, /*dyadic=*/false);
  const UndirectedGraph g = UndirectedGraph::FromEdgeList(el);
  const DirectedGraph dg = DirectedGraph::FromEdgeList(el);
  UndirectedGraphStream stream(g);
  DirectedGraphStream arc_stream(dg);
  const NodeSet alive = EveryThirdDead(n);
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 1; u < n; u += 4) t.Remove(u);

  PassEngine one(PassEngineOptions{.num_threads = 1});
  std::vector<double> deg1(n), out1(n), in1(n);
  const UndirectedPassResult r1 = one.RunUndirected(stream, alive, deg1);
  const DirectedPassResult d1 = one.RunDirected(arc_stream, alive, t, out1,
                                                in1);
  EXPECT_GT(r1.edges, 0u);
  EXPECT_GT(d1.arcs, 0u);
  for (size_t threads : {2u, 4u}) {
    PassEngine many(PassEngineOptions{.num_threads = threads});
    std::vector<double> degN(n), outN(n), inN(n);
    const UndirectedPassResult rN = many.RunUndirected(stream, alive, degN);
    EXPECT_EQ(rN.edges, r1.edges) << threads;
    EXPECT_EQ(rN.weight, r1.weight) << threads;
    EXPECT_EQ(degN, deg1) << threads;
    const DirectedPassResult dN =
        many.RunDirected(arc_stream, alive, t, outN, inN);
    EXPECT_EQ(dN.arcs, d1.arcs) << threads;
    EXPECT_EQ(dN.weight, d1.weight) << threads;
    EXPECT_EQ(outN, out1) << threads;
    EXPECT_EQ(inN, in1) << threads;
  }
}

/// A one-pass run that records the survivors VisitSurvivors hands it.
class RecordingRun final : public FusedRun {
 public:
  explicit RecordingRun(const NodeSet& alive) : alive_(alive) {}
  bool done() const override { return done_; }
  void BeginPass() override { seen.clear(); }
  void AccumulateShard(const Shard& shard, size_t) override {
    VisitSurvivors(shard, alive_, [&](const Edge& e) { seen.push_back(e); });
  }
  bool parallel_shards() const override { return false; }
  void FinishPass() override { done_ = true; }

  std::vector<Edge> seen;

 private:
  const NodeSet& alive_;
  bool done_ = false;
};

TEST(DriveTest, OrderedRunsSeeStreamOrderOnBothFills) {
  // Runs whose pass depends on edge order (sketches, Algorithm 1's collect
  // pass) must see exactly the stream's survivors in the stream's order,
  // on the edge fill and the row fill, at any thread count and width.
  const NodeId n = 5000;
  const EdgeList el = LoopyEdges(n, 150000, 621, /*dyadic=*/false);
  const UndirectedGraph g = UndirectedGraph::FromEdgeList(el);
  EdgeListStream list_stream(el);
  UndirectedGraphStream csr_stream(g);
  const NodeSet alive = MakeKernelCase(0, AliveShape::kSparse, n, 622).alive;
  for (EdgeStream* stream :
       {static_cast<EdgeStream*>(&list_stream),
        static_cast<EdgeStream*>(&csr_stream)}) {
    const std::vector<Edge> all = DrainScalar(*stream);
    ASSERT_GT(all.size(), kShardSlots * kShardEdges);
    std::vector<Edge> want;
    for (const Edge& e : all) {
      if (alive.ContainsBoth(e.u, e.v)) want.push_back(e);
    }
    for (size_t threads : {1u, 4u}) {
      const std::string label =
          std::string(stream == &csr_stream ? "csr" : "edge-list") +
          " threads=" + std::to_string(threads);
      PassEngine engine(PassEngineOptions{.num_threads = threads});
      RecordingRun a(alive), b(alive);
      FusedRun* runs[] = {&a, &b};
      ASSERT_TRUE(engine.Drive(*stream, runs, nullptr).ok()) << label;
      EXPECT_EQ(a.seen, want) << label;
      EXPECT_EQ(b.seen, want) << label;
      EXPECT_EQ(engine.last_physical_passes(), 1u) << label;
      EXPECT_EQ(engine.last_logical_passes(), 2u) << label;
      EXPECT_EQ(engine.last_edges_scanned(), all.size()) << label;
    }
  }
}

TEST(PassEngineTest, CompactedRunsMatchStreamingRuns) {
  // Algorithm 1's collect pass and in-memory buffer passes (§6.3) must
  // keep exactly the surviving edges: with exact (unit or dyadic) sums a
  // compacting run matches the same run without compaction on both fills,
  // saving stream passes, at every thread count.
  const NodeId n = 2000;
  const EdgeList dyadic = LoopyEdges(n, 40000, 631, /*dyadic=*/true);
  const EdgeList unit = ErdosRenyiGnm(n, 40000, 632);
  const UndirectedGraph g = UndirectedGraph::FromEdgeList(dyadic);
  EdgeListStream dyadic_stream(dyadic);
  EdgeListStream unit_stream(unit);
  UndirectedGraphStream csr_stream(g);
  for (EdgeStream* stream :
       {static_cast<EdgeStream*>(&dyadic_stream),
        static_cast<EdgeStream*>(&unit_stream),
        static_cast<EdgeStream*>(&csr_stream)}) {
    Algorithm1Options plain;
    plain.epsilon = 0.1;
    auto want = RunAlgorithm1(*stream, plain);
    ASSERT_TRUE(want.ok());
    Algorithm1Options compact = plain;
    compact.compact_below_edges = 20000;
    for (size_t threads : {1u, 2u, 4u}) {
      const std::string label = "threads=" + std::to_string(threads);
      PassEngine engine(PassEngineOptions{.num_threads = threads});
      compact.engine = &engine;
      auto got = RunAlgorithm1(*stream, compact);
      ASSERT_TRUE(got.ok()) << label;
      EXPECT_LT(got->io_passes, got->passes) << label;
      EXPECT_EQ(got->passes, want->passes) << label;
      EXPECT_EQ(got->density, want->density) << label;
      EXPECT_EQ(got->nodes, want->nodes) << label;
      ASSERT_EQ(got->trace.size(), want->trace.size()) << label;
      for (size_t i = 0; i < got->trace.size(); ++i) {
        EXPECT_EQ(got->trace[i].edges, want->trace[i].edges) << label;
        EXPECT_EQ(got->trace[i].weight, want->trace[i].weight) << label;
      }
    }
  }
}

}  // namespace
}  // namespace densest

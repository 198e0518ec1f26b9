// Tests for Algorithm 1: unit behaviour, trace invariants, and the
// (2+2eps) approximation guarantee checked against exact oracles.

#include "core/algorithm1.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <tuple>

#include "flow/brute_force.h"
#include "flow/goldberg.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "gen/regular.h"
#include "graph/graph_builder.h"
#include "graph/subgraph.h"
#include "stream/file_stream.h"
#include "stream/memory_stream.h"
#include "stream/pass_stats.h"

namespace densest {
namespace {

UndirectedGraph BuildUndirected(const EdgeList& e) {
  GraphBuilder b;
  b.ReserveNodes(e.num_nodes());
  for (const Edge& edge : e.edges()) b.Add(edge.u, edge.v, edge.w);
  return std::move(b.BuildUndirected()).value();
}

UndirectedGraph CliquePlusPendants() {
  // K6 on {0..5}; pendant path 5-6-7; isolated node 8.
  GraphBuilder b;
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = i + 1; j < 6; ++j) b.Add(i, j);
  }
  b.Add(5, 6);
  b.Add(6, 7);
  b.ReserveNodes(9);
  return std::move(b.BuildUndirected()).value();
}

TEST(Algorithm1Test, FindsPlantedClique) {
  UndirectedGraph g = CliquePlusPendants();
  Algorithm1Options opt;
  opt.epsilon = 0.1;
  auto r = RunAlgorithm1(g, opt);
  ASSERT_TRUE(r.ok());
  // The clique K6 has density 15/6 = 2.5; the whole graph 17/9 < 2.
  EXPECT_DOUBLE_EQ(r->density, 2.5);
  EXPECT_EQ(r->nodes.size(), 6u);
  for (NodeId u = 0; u < 6; ++u) {
    EXPECT_EQ(r->nodes[u], u);
  }
}

TEST(Algorithm1Test, ReportedDensityMatchesReturnedNodes) {
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(200, 1500, 5));
  Algorithm1Options opt;
  opt.epsilon = 0.5;
  auto r = RunAlgorithm1(g, opt);
  ASSERT_TRUE(r.ok());
  NodeSet s = NodeSet::FromVector(g.num_nodes(), r->nodes);
  EXPECT_NEAR(InducedDensity(g, s), r->density, 1e-9);
}

TEST(Algorithm1Test, RegularGraphPeelsInOnePass) {
  // d-regular: threshold 2(1+eps)(d/2) >= d removes everyone at once.
  UndirectedGraph g = BuildUndirected(CirculantRegular(100, 6));
  Algorithm1Options opt;
  opt.epsilon = 0.0;
  auto r = RunAlgorithm1(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->passes, 1u);
  EXPECT_DOUBLE_EQ(r->density, 3.0);
  EXPECT_EQ(r->nodes.size(), 100u);
}

TEST(Algorithm1Test, TraceInvariants) {
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(500, 3000, 77));
  Algorithm1Options opt;
  opt.epsilon = 0.5;
  auto r = RunAlgorithm1(g, opt);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->trace.size(), r->passes);
  EXPECT_EQ(r->trace.front().nodes, g.num_nodes());
  EXPECT_EQ(r->trace.front().edges, g.num_edges());
  for (size_t i = 0; i < r->trace.size(); ++i) {
    const PassSnapshot& snap = r->trace[i];
    EXPECT_EQ(snap.pass, i + 1);
    EXPECT_GE(snap.removed, 1u) << "every pass must remove a node";
    EXPECT_NEAR(snap.density,
                snap.weight / static_cast<double>(snap.nodes), 1e-12);
    if (i + 1 < r->trace.size()) {
      EXPECT_EQ(r->trace[i + 1].nodes, snap.nodes - snap.removed);
      EXPECT_LE(r->trace[i + 1].edges, snap.edges);
    }
  }
  // Last pass ends with everything removed.
  uint64_t total_removed = 0;
  for (const auto& snap : r->trace) total_removed += snap.removed;
  EXPECT_EQ(total_removed, g.num_nodes());
}

TEST(Algorithm1Test, PassBoundHolds) {
  // Lemma 4: at most log_{1+eps} n passes.
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(2000, 10000, 3));
  for (double eps : {0.25, 0.5, 1.0, 2.0}) {
    Algorithm1Options opt;
    opt.epsilon = eps;
    opt.record_trace = false;
    auto r = RunAlgorithm1(g, opt);
    ASSERT_TRUE(r.ok());
    double bound =
        std::log(static_cast<double>(g.num_nodes())) / std::log1p(eps);
    EXPECT_LE(static_cast<double>(r->passes), bound + 2.0)
        << "eps=" << eps;
  }
}

TEST(Algorithm1Test, LargerEpsilonNeverMorePassesOnErdosRenyi) {
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(1000, 8000, 13));
  uint64_t prev = UINT64_MAX;
  for (double eps : {0.0, 0.5, 1.0, 2.0}) {
    Algorithm1Options opt;
    opt.epsilon = eps;
    opt.record_trace = false;
    auto r = RunAlgorithm1(g, opt);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->passes, prev) << "eps=" << eps;
    prev = r->passes;
  }
}

TEST(Algorithm1Test, WeightedGraphUsesWeightedDegrees) {
  // A light triangle and a heavy triangle: the heavy one is denser.
  GraphBuilder b;
  b.Add(0, 1, 1.0);
  b.Add(1, 2, 1.0);
  b.Add(0, 2, 1.0);
  b.Add(3, 4, 10.0);
  b.Add(4, 5, 10.0);
  b.Add(3, 5, 10.0);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  Algorithm1Options opt;
  opt.epsilon = 0.25;
  auto r = RunAlgorithm1(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->density, 10.0);
  EXPECT_EQ(r->nodes, (std::vector<NodeId>{3, 4, 5}));
}

TEST(Algorithm1Test, InvalidArguments) {
  UndirectedGraph g = CliquePlusPendants();
  Algorithm1Options opt;
  opt.epsilon = -0.1;
  EXPECT_FALSE(RunAlgorithm1(g, opt).ok());

  UndirectedGraph empty;
  Algorithm1Options ok_opt;
  EXPECT_FALSE(RunAlgorithm1(empty, ok_opt).ok());
}

TEST(Algorithm1Test, MaxPassesCapRespected) {
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(500, 2000, 9));
  Algorithm1Options opt;
  opt.epsilon = 0.0;
  opt.max_passes = 2;
  auto r = RunAlgorithm1(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->passes, 2u);
}

TEST(Algorithm1Test, CappedRunIsUncertified) {
  // 495 disjoint edges plus a K10 (rho* = 4.5): one eps = 0 pass peels the
  // matching and keeps S = V at rho 0.54, where Lemma 1 would claim
  // rho* <= 1.08 — a band only a run that peels to its end has earned.
  EdgeList el(1000);
  for (NodeId u = 0; u < 990; u += 2) el.Add(u, u + 1);
  for (NodeId i = 990; i < 1000; ++i) {
    for (NodeId j = i + 1; j < 1000; ++j) el.Add(i, j);
  }
  UndirectedGraph g = BuildUndirected(el);
  Algorithm1Options opt;
  opt.epsilon = 0.0;
  opt.max_passes = 1;
  auto capped = RunAlgorithm1(g, opt);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->passes, 1u);
  EXPECT_DOUBLE_EQ(capped->density, 0.54);
  EXPECT_EQ(capped->certified_band, 0.0);
  EXPECT_FALSE(capped->ToAnswer().certified);

  opt.max_passes = 0;  // uncapped
  auto full = RunAlgorithm1(g, opt);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->passes, 2u);
  EXPECT_DOUBLE_EQ(full->density, 4.5);
  EXPECT_TRUE(full->ToAnswer().certified);
  EXPECT_DOUBLE_EQ(full->ToAnswer().upper_bound, 9.0);
}

TEST(Algorithm1Test, SameResultAcrossStreamBackends) {
  EdgeList el = ErdosRenyiGnm(300, 2000, 55);
  UndirectedGraph g = BuildUndirected(el);
  Algorithm1Options opt;
  opt.epsilon = 0.75;

  auto from_graph = RunAlgorithm1(g, opt);
  ASSERT_TRUE(from_graph.ok());

  EdgeListStream list_stream(el);
  auto from_list = RunAlgorithm1(list_stream, opt);
  ASSERT_TRUE(from_list.ok());

  std::string path = ::testing::TempDir() + "/alg1_edges.bin";
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, false).ok());
  auto file_stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(file_stream.ok());
  auto from_file = RunAlgorithm1(**file_stream, opt);
  ASSERT_TRUE(from_file.ok());
  std::remove(path.c_str());

  EXPECT_EQ(from_graph->nodes, from_list->nodes);
  EXPECT_EQ(from_graph->nodes, from_file->nodes);
  EXPECT_DOUBLE_EQ(from_graph->density, from_list->density);
  EXPECT_DOUBLE_EQ(from_graph->density, from_file->density);
  EXPECT_EQ(from_graph->passes, from_file->passes);
}

TEST(Algorithm1Test, PassAccountingMatchesReportedPasses) {
  EdgeList el = ErdosRenyiGnm(300, 2000, 56);
  EdgeListStream inner(el);
  PassStats stats;
  CountingEdgeStream counting(inner, stats);
  Algorithm1Options opt;
  opt.epsilon = 1.0;
  auto r = RunAlgorithm1(counting, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.passes, r->passes);
  EXPECT_EQ(stats.edges_scanned, r->passes * el.num_edges());
}

TEST(Algorithm1Test, CompactionProducesIdenticalResults) {
  EdgeList el = ErdosRenyiGnm(800, 6000, 21);
  UndirectedGraph g = BuildUndirected(el);

  Algorithm1Options plain;
  plain.epsilon = 0.5;
  auto reference = RunAlgorithm1(g, plain);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->io_passes, reference->passes);

  Algorithm1Options compacting = plain;
  compacting.compact_below_edges = 3000;
  auto compacted = RunAlgorithm1(g, compacting);
  ASSERT_TRUE(compacted.ok());

  // Bit-identical peeling; only the IO accounting differs.
  EXPECT_EQ(compacted->nodes, reference->nodes);
  EXPECT_DOUBLE_EQ(compacted->density, reference->density);
  EXPECT_EQ(compacted->passes, reference->passes);
  EXPECT_LT(compacted->io_passes, compacted->passes);
  ASSERT_EQ(compacted->trace.size(), reference->trace.size());
  for (size_t i = 0; i < reference->trace.size(); ++i) {
    EXPECT_EQ(compacted->trace[i].edges, reference->trace[i].edges);
    EXPECT_EQ(compacted->trace[i].removed, reference->trace[i].removed);
  }
}

TEST(Algorithm1Test, CompactionReducesStreamScans) {
  EdgeList el = ErdosRenyiGnm(1000, 8000, 22);
  EdgeListStream inner(el);
  PassStats stats;
  CountingEdgeStream counting(inner, stats);

  Algorithm1Options opt;
  opt.epsilon = 0.25;
  opt.compact_below_edges = el.num_edges() / 2;
  auto r = RunAlgorithm1(counting, opt);
  ASSERT_TRUE(r.ok());
  // The external stream was only reset io_passes times.
  EXPECT_EQ(stats.passes, r->io_passes);
  EXPECT_LT(r->io_passes, r->passes);
}

TEST(Algorithm1Test, CompactionThresholdLargerThanGraphStillCorrect) {
  // Compaction armed immediately (threshold above |E|): pass 1 streams,
  // pass 2 compacts, rest run in memory.
  EdgeList el = ErdosRenyiGnm(300, 2000, 23);
  UndirectedGraph g = BuildUndirected(el);
  Algorithm1Options opt;
  opt.epsilon = 0.5;
  opt.compact_below_edges = 1u << 30;
  auto compacted = RunAlgorithm1(g, opt);
  Algorithm1Options plain;
  plain.epsilon = 0.5;
  auto reference = RunAlgorithm1(g, plain);
  ASSERT_TRUE(compacted.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(compacted->nodes, reference->nodes);
  EXPECT_LE(compacted->io_passes, 2u);
}

// ---- Property sweep: approximation guarantee against exact oracles. ----

class Algorithm1GuaranteeTest
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(Algorithm1GuaranteeTest, WithinFactorOfOptimum) {
  auto [seed, density_factor, eps] = GetParam();
  const NodeId n = 60;
  const EdgeId m = static_cast<EdgeId>(density_factor * n);
  UndirectedGraph g = BuildUndirected(
      ErdosRenyiGnm(n, m, static_cast<uint64_t>(seed)));

  auto exact = ExactDensestSubgraph(g);
  ASSERT_TRUE(exact.ok());

  Algorithm1Options opt;
  opt.epsilon = eps;
  auto approx = RunAlgorithm1(g, opt);
  ASSERT_TRUE(approx.ok());

  // Lemma 3: rho~ >= rho* / (2 + 2eps); allow a hair of float slack.
  EXPECT_GE(approx->density * (2.0 + 2.0 * eps),
            exact->density * (1.0 - 1e-9))
      << "seed=" << seed << " m=" << m << " eps=" << eps;
  // And never better than the optimum.
  EXPECT_LE(approx->density, exact->density + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    GuaranteeSweep, Algorithm1GuaranteeTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(1.5, 4.0, 10.0),
                       ::testing::Values(0.001, 0.5, 2.0)));

// Cross-check against the brute-force oracle on very small graphs, which
// validates the flow oracle itself through an independent path.
class Algorithm1TinyTest : public ::testing::TestWithParam<int> {};

TEST_P(Algorithm1TinyTest, GuaranteeAgainstBruteForce) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(12, 25, seed));
  auto brute = BruteForceDensest(g);
  ASSERT_TRUE(brute.ok());
  Algorithm1Options opt;
  opt.epsilon = 0.2;
  auto approx = RunAlgorithm1(g, opt);
  ASSERT_TRUE(approx.ok());
  EXPECT_GE(approx->density * (2.0 + 2.0 * 0.2), brute->density - 1e-9);
  EXPECT_LE(approx->density, brute->density + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(TinySweep, Algorithm1TinyTest,
                         ::testing::Range(100, 120));

}  // namespace
}  // namespace densest

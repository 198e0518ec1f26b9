// Tests for generator-backed streams (edges recomputed every pass).

#include "stream/generated_stream.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/algorithm1.h"
#include "graph/graph_builder.h"

namespace densest {
namespace {

std::vector<std::pair<NodeId, NodeId>> Drain(EdgeStream& s) {
  std::vector<std::pair<NodeId, NodeId>> out;
  s.Reset();
  Edge e;
  while (s.Next(&e)) out.emplace_back(e.u, e.v);
  return out;
}

TEST(GnpEdgeStreamTest, IdenticalAcrossPasses) {
  GnpEdgeStream s(200, 0.05, 42);
  auto first = Drain(s);
  auto second = Drain(s);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(GnpEdgeStreamTest, EdgeCountNearExpectation) {
  const NodeId n = 400;
  const double p = 0.03;
  GnpEdgeStream s(n, p, 7);
  auto edges = Drain(s);
  double expected = p * n * (n - 1) / 2.0;
  EXPECT_GT(edges.size(), expected * 0.8);
  EXPECT_LT(edges.size(), expected * 1.2);
}

TEST(GnpEdgeStreamTest, NoDuplicatesOrSelfLoops) {
  GnpEdgeStream s(300, 0.04, 9);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (auto [u, v] : Drain(s)) {
    EXPECT_NE(u, v);
    EXPECT_LT(u, v);  // canonical enumeration order
    EXPECT_TRUE(seen.insert({u, v}).second);
  }
}

TEST(GnpEdgeStreamTest, ExtremeProbabilities) {
  GnpEdgeStream none(100, 0.0, 1);
  EXPECT_TRUE(Drain(none).empty());
  GnpEdgeStream all(20, 1.0, 1);
  EXPECT_EQ(Drain(all).size(), 190u);
}

TEST(GnpEdgeStreamTest, Algorithm1RunsWithoutMaterializing) {
  // The whole pipeline over a purely generated graph: O(n) algorithm
  // state, O(1) stream state.
  GnpEdgeStream s(2000, 0.01, 13);
  Algorithm1Options opt;
  opt.epsilon = 0.5;
  auto r = RunAlgorithm1(s, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->density, 5.0);  // ~G(2000, 0.01): avg degree ~20
  EXPECT_GT(r->passes, 1u);
}

TEST(CirculantEdgeStreamTest, MatchesDegreeContract) {
  CirculantEdgeStream s(30, 6);
  auto edges = Drain(s);
  EXPECT_EQ(edges.size(), 90u);  // n * d / 2
  // Build and check all degrees are exactly 6.
  GraphBuilder b;
  b.ReserveNodes(30);
  for (auto [u, v] : edges) b.Add(u, v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  for (NodeId u = 0; u < 30; ++u) EXPECT_EQ(g.Degree(u), 6u);
}

TEST(CirculantEdgeStreamTest, RepeatablePasses) {
  CirculantEdgeStream s(16, 4);
  EXPECT_EQ(Drain(s), Drain(s));
}

TEST(CirculantEdgeStreamTest, RegularGraphDensityViaAlgorithm1) {
  CirculantEdgeStream s(100, 8);
  Algorithm1Options opt;
  opt.epsilon = 0.0;
  auto r = RunAlgorithm1(s, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->density, 4.0);  // d/2
  EXPECT_EQ(r->passes, 1u);
}

}  // namespace
}  // namespace densest

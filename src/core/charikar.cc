#include "core/charikar.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "graph/edge_list.h"
#include "graph/subgraph.h"
#include "stream/edge_stream.h"

namespace densest {

namespace {

/// Shared epilogue: given the removal order and the density after every
/// removal step, reconstruct the best suffix subgraph.
CharikarResult BuildResult(const UndirectedGraph& g,
                           std::vector<NodeId> removal_order,
                           const std::vector<double>& density_after_step) {
  // density_after_step[t] = rho of the graph after t removals (t = 0 is V).
  size_t best_t = 0;
  for (size_t t = 1; t < density_after_step.size(); ++t) {
    if (density_after_step[t] > density_after_step[best_t]) best_t = t;
  }
  CharikarResult out;
  out.best.density = density_after_step[best_t];
  out.best.passes = removal_order.size();
  out.best.certified_band = 2.0;  // Charikar's classic factor
  out.best.nodes.assign(removal_order.begin() + best_t, removal_order.end());
  std::sort(out.best.nodes.begin(), out.best.nodes.end());
  // Per-step trace mirrors the streaming algorithms' PassSnapshot.
  out.best.trace.reserve(density_after_step.size());
  for (size_t t = 0; t < density_after_step.size(); ++t) {
    PassSnapshot snap;
    snap.pass = t;
    snap.nodes = static_cast<NodeId>(g.num_nodes() - t);
    snap.density = density_after_step[t];
    snap.removed = t + 1 < density_after_step.size() ? 1 : 0;
    out.best.trace.push_back(snap);
  }
  out.removal_order = std::move(removal_order);
  return out;
}

}  // namespace

CharikarResult CharikarPeel(const UndirectedGraph& g) {
  const NodeId n = g.num_nodes();
  std::vector<EdgeId> deg(n);
  EdgeId cur_edges = g.num_edges();
  NodeId max_deg = 0;
  for (NodeId u = 0; u < n; ++u) {
    deg[u] = g.Degree(u);
    max_deg = std::max<NodeId>(max_deg, static_cast<NodeId>(deg[u]));
  }

  // Lazy bucket queue: nodes are re-pushed on every degree decrement;
  // stale entries are skipped on pop. Total pushes: n + 2m.
  std::vector<std::vector<NodeId>> buckets(max_deg + 1);
  for (NodeId u = 0; u < n; ++u) {
    buckets[deg[u]].push_back(u);
  }
  NodeSet alive(n, /*full=*/true);

  std::vector<NodeId> removal_order;
  removal_order.reserve(n);
  std::vector<double> density_after_step;
  density_after_step.reserve(n + 1);
  density_after_step.push_back(
      n == 0 ? 0.0
             : static_cast<double>(cur_edges) / static_cast<double>(n));

  size_t cur_min = 0;
  NodeId remaining = n;
  while (remaining > 0) {
    // Find the minimum-degree alive node.
    while (cur_min < buckets.size() &&
           (buckets[cur_min].empty() ||
            !alive.Contains(buckets[cur_min].back()) ||
            deg[buckets[cur_min].back()] != cur_min)) {
      if (buckets[cur_min].empty()) {
        ++cur_min;
      } else {
        buckets[cur_min].pop_back();  // stale entry
      }
    }
    NodeId u = buckets[cur_min].back();
    buckets[cur_min].pop_back();

    alive.Remove(u);
    --remaining;
    removal_order.push_back(u);
    for (NodeId v : g.Neighbors(u)) {
      if (v == u) {  // self-loop: one incident edge, no neighbor update
        --cur_edges;
        continue;
      }
      if (!alive.Contains(v)) continue;
      --cur_edges;
      --deg[v];
      buckets[deg[v]].push_back(v);
    }
    if (cur_min > 0) --cur_min;  // neighbor degrees dropped by at most 1
    density_after_step.push_back(
        remaining == 0
            ? 0.0
            : static_cast<double>(cur_edges) / static_cast<double>(remaining));
  }
  return BuildResult(g, std::move(removal_order), density_after_step);
}

namespace {

/// One pass over the stream, materialized as a CSR graph.
/// Fails with the stream's status when the pass ended early (truncated or
/// failing file): the partial graph would peel to a plausible wrong rho.
StatusOr<UndirectedGraph> MaterializeStream(EdgeStream& stream) {
  EdgeList edges(stream.num_nodes());
  if (EdgeId hint = stream.SizeHint(); hint > 0) {
    edges.mutable_edges().reserve(static_cast<size_t>(hint));
  }
  ForEachEdge(stream, [&](const Edge& e) { edges.Add(e.u, e.v, e.w); });
  if (Status io = stream.status(); !io.ok()) return io;
  return UndirectedGraph::FromEdgeList(edges);
}

}  // namespace

StatusOr<CharikarResult> CharikarPeel(EdgeStream& stream) {
  StatusOr<UndirectedGraph> g = MaterializeStream(stream);
  if (!g.ok()) return g.status();
  return CharikarPeel(*g);
}

StatusOr<CharikarResult> CharikarPeelWeighted(EdgeStream& stream) {
  StatusOr<UndirectedGraph> g = MaterializeStream(stream);
  if (!g.ok()) return g.status();
  return CharikarPeelWeighted(*g);
}

CharikarResult CharikarPeelWeighted(const UndirectedGraph& g) {
  const NodeId n = g.num_nodes();
  std::vector<double> wdeg(n);
  double cur_weight = g.total_weight();
  for (NodeId u = 0; u < n; ++u) wdeg[u] = g.WeightedDegree(u);

  using Entry = std::pair<double, NodeId>;  // (weighted degree, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (NodeId u = 0; u < n; ++u) heap.emplace(wdeg[u], u);
  NodeSet alive(n, /*full=*/true);

  std::vector<NodeId> removal_order;
  removal_order.reserve(n);
  std::vector<double> density_after_step;
  density_after_step.reserve(n + 1);
  density_after_step.push_back(n == 0 ? 0.0
                                      : cur_weight / static_cast<double>(n));

  NodeId remaining = n;
  while (remaining > 0) {
    auto [d, u] = heap.top();
    heap.pop();
    if (!alive.Contains(u) || d != wdeg[u]) continue;  // stale entry

    alive.Remove(u);
    --remaining;
    removal_order.push_back(u);
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      NodeId v = nbrs[i];
      double w = ws.empty() ? 1.0 : ws[i];
      if (v == u) {  // self-loop
        cur_weight -= w;
        continue;
      }
      if (!alive.Contains(v)) continue;
      cur_weight -= w;
      wdeg[v] -= w;
      heap.emplace(wdeg[v], v);
    }
    density_after_step.push_back(
        remaining == 0 ? 0.0 : cur_weight / static_cast<double>(remaining));
  }
  return BuildResult(g, std::move(removal_order), density_after_step);
}

}  // namespace densest

// Copyright 2026 The densest Authors.
// The shard kernels behind every streaming pass: the alive-first edge loop,
// the CSR row loops, the stream-order survivor walk, the per-slot totals
// and the slot reduction. PassEngine::Drive hands each run shards of one of
// two fills (edge records, or CSR row ranges) and every run accumulates
// them through these functions, so a solo run and a fused one take the
// same kernel on every stream.
//
// Peeling removes a constant fraction of S every pass (Bahmani et al., §6),
// so after the first pass most streamed edges are dead. Rather than add
// keep ∈ {0, 1} into the n-sized degree arrays for every edge (two random
// read-modify-writes per dead edge), the edge kernel first collects the
// indices of a block's surviving edges in a stack array, then touches the
// degree arrays for those edges only, in stream order. Every sum keeps its
// order, so results keep their bits, weighted streams included. The row
// kernels skip whole dead rows instead.

#ifndef DENSEST_CORE_ALIVE_KERNEL_H_
#define DENSEST_CORE_ALIVE_KERNEL_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/directed_graph.h"
#include "graph/subgraph.h"
#include "graph/types.h"
#include "graph/undirected_graph.h"

namespace densest {

/// Edges per shard of the edge fill (about 2x as many adjacency entries
/// per shard of the row fill). A shard is the unit of work handed to one
/// thread and the granularity of the deterministic reduction.
inline constexpr size_t kShardEdges = 1 << 14;
/// Shards (and accumulator slots) per round. Fixed independently of the
/// thread count so that results never depend on parallelism.
inline constexpr size_t kShardSlots = 8;

/// \brief One streaming pass worth of undirected statistics over the alive
/// set S: induced edge count and induced total weight.
struct [[nodiscard]] UndirectedPassResult {
  EdgeId edges = 0;
  double weight = 0;
};

/// \brief One streaming pass of directed statistics: |E(S,T)| count and
/// weight.
struct [[nodiscard]] DirectedPassResult {
  EdgeId arcs = 0;
  double weight = 0;
};

/// \brief One unit of a pass round: a view of edge records (a record
/// stream or an in-memory buffer), or the rows [begin, end) of the
/// stream's CSR graph (then exactly one of `graph` and `digraph` is set).
struct Shard {
  std::span<const Edge> edges{};
  const UndirectedGraph* graph = nullptr;
  const DirectedGraph* digraph = nullptr;
  NodeId begin = 0;
  NodeId end = 0;
};

/// Edges per filter block; the survivor indices of one block live in a
/// kAliveBlock-entry uint16_t array on the stack.
inline constexpr size_t kAliveBlock = 1024;

/// Calls visit(e) for every edge of `shard` with keep(e) true, in stream
/// order. keep must not read anything visit writes; keep.all() true
/// promises that every edge passes (S = V, the first pass of every peel)
/// and skips the membership tests.
/// Always inlined: the wrappers' running totals then stay in registers
/// instead of behind a pointer the degree-array stores might alias.
template <typename KeepFn, typename VisitFn>
[[gnu::always_inline]] inline void AliveFirst(std::span<const Edge> shard,
                                              const KeepFn& keep,
                                              VisitFn&& visit) {
  static_assert(kAliveBlock <= 65536, "indices are uint16_t");
  const bool all = keep.all();
  uint16_t kept[kAliveBlock];
  for (size_t base = 0; base < shard.size(); base += kAliveBlock) {
    const Edge* block = shard.data() + base;
    const size_t len = std::min(kAliveBlock, shard.size() - base);
    size_t m = len;
    if (!all) {
      m = 0;
      for (size_t i = 0; i < len; ++i) {
        kept[m] = static_cast<uint16_t>(i);
        m += keep(block[i]) ? 1 : 0;
      }
    }
    for (size_t k = 0; k < m; ++k) visit(block[all ? k : kept[k]]);
  }
}

/// The undirected filter: both endpoints in `alive`.
struct BothAlive {
  const NodeSet& alive;
  bool operator()(const Edge& e) const { return alive.ContainsBoth(e.u, e.v); }
  bool all() const { return alive.size() == alive.universe_size(); }
};

/// The directed filter: tail in `s`, head in `t`. Both tests are always
/// evaluated, so the filter carries no branch.
struct ArcAlive {
  const NodeSet& s;
  const NodeSet& t;
  bool operator()(const Edge& e) const {
    return (static_cast<unsigned>(s.Contains(e.u)) &
            static_cast<unsigned>(t.Contains(e.v))) != 0;
  }
  bool all() const {
    return s.size() == s.universe_size() && t.size() == t.universe_size();
  }
};

/// Undirected kernel over one edge shard: every edge with both endpoints
/// in `alive` adds e.w to deg[e.u], deg[e.v] and the returned weight, and
/// counts once. The returned totals start from zero.
inline UndirectedPassResult AccumulateUndirectedShard(
    std::span<const Edge> shard, const NodeSet& alive, double* deg) {
  UndirectedPassResult r;
  AliveFirst(shard, BothAlive{alive}, [&](const Edge& e) {
    deg[e.u] += e.w;
    deg[e.v] += e.w;
    r.weight += e.w;
    ++r.edges;
  });
  return r;
}

/// Directed kernel over one edge shard: every arc u->v with u in `s` and v
/// in `t` adds e.w to out_acc[u], in_acc[v] and the returned weight, and
/// counts once. The returned totals start from zero.
inline DirectedPassResult AccumulateDirectedShard(std::span<const Edge> shard,
                                                  const NodeSet& s,
                                                  const NodeSet& t,
                                                  double* out_acc,
                                                  double* in_acc) {
  DirectedPassResult r;
  AliveFirst(shard, ArcAlive{s, t}, [&](const Edge& e) {
    out_acc[e.u] += e.w;
    in_acc[e.v] += e.w;
    r.weight += e.w;
    ++r.arcs;
  });
  return r;
}

/// Totals of an undirected row shard. Every edge {u, v} occupies the
/// adjacency entries (u, v) AND (v, u), a self-loop only (u, u), so
/// walking all entries adds each edge's weight to both endpoint degrees
/// with purely sequential reads. `twice` sums every kept entry, `self` the
/// kept self-loops once more; half their sum is the edge totals, exactly.
struct UndirectedRowResult {
  UndirectedPassResult twice;
  UndirectedPassResult self;
};

/// Undirected row kernel over rows [begin, end) of `g` (see
/// UndirectedRowResult). Dead rows cost nothing.
inline UndirectedRowResult AccumulateUndirectedRows(const UndirectedGraph& g,
                                                    NodeId begin, NodeId end,
                                                    const NodeSet& alive,
                                                    double* deg) {
  double twice_weight = 0.0;
  double self_weight = 0.0;
  EdgeId twice_edges = 0;
  EdgeId self_edges = 0;
  if (!g.is_weighted() && !g.has_self_loops()) {
    // Two-way unroll with independent row accumulators: breaks the serial
    // FP-add dependency chain. Reassociation is safe — unit weights sum
    // exactly, so every order gives the same bits.
    for (NodeId u = begin; u < end; ++u) {
      if (!alive.Contains(u)) continue;
      const std::span<const NodeId> nbrs = g.Neighbors(u);
      double row0 = 0.0, row1 = 0.0;
      size_t i = 0;
      for (; i + 2 <= nbrs.size(); i += 2) {
        const NodeId v0 = nbrs[i];
        const NodeId v1 = nbrs[i + 1];
        const double k0 = alive.Contains(v0) ? 1.0 : 0.0;
        const double k1 = alive.Contains(v1) ? 1.0 : 0.0;
        deg[v0] += k0;
        deg[v1] += k1;
        row0 += k0;
        row1 += k1;
      }
      if (i < nbrs.size()) {
        const NodeId v = nbrs[i];
        const double k = alive.Contains(v) ? 1.0 : 0.0;
        deg[v] += k;
        row0 += k;
      }
      twice_weight += row0 + row1;
    }
    twice_edges = static_cast<EdgeId>(twice_weight);
  } else {
    for (NodeId u = begin; u < end; ++u) {
      if (!alive.Contains(u)) continue;
      const std::span<const NodeId> nbrs = g.Neighbors(u);
      const std::span<const Weight> ws = g.NeighborWeights(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId v = nbrs[i];
        if (!alive.Contains(v)) continue;
        const double w = ws.empty() ? 1.0 : ws[i];
        deg[v] += w;
        twice_weight += w;
        ++twice_edges;
        if (v == u) {  // self-loop: one entry, degree counts it twice
          deg[u] += w;
          self_weight += w;
          ++self_edges;
        }
      }
    }
  }
  return {.twice = {.edges = twice_edges, .weight = twice_weight},
          .self = {.edges = self_edges, .weight = self_weight}};
}

/// Directed row kernel over rows [begin, end) of `g`: arcs occupy exactly
/// one entry, so no halving is needed; the out-degree of a row accumulates
/// in a register and stores once.
inline DirectedPassResult AccumulateDirectedRows(const DirectedGraph& g,
                                                 NodeId begin, NodeId end,
                                                 const NodeSet& s,
                                                 const NodeSet& t,
                                                 double* out_acc,
                                                 double* in_acc) {
  double weight = 0.0;
  EdgeId arcs = 0;
  const bool weighted = g.is_weighted();
  for (NodeId u = begin; u < end; ++u) {
    if (!s.Contains(u)) continue;
    const std::span<const NodeId> nbrs = g.OutNeighbors(u);
    const std::span<const Weight> ws = g.OutNeighborWeights(u);
    double row = 0.0;
    if (!weighted) {
      for (NodeId v : nbrs) {
        const double keep = t.Contains(v) ? 1.0 : 0.0;
        in_acc[v] += keep;
        row += keep;
      }
    } else {
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId v = nbrs[i];
        if (!t.Contains(v)) continue;
        in_acc[v] += ws[i];
        row += ws[i];
        ++arcs;
      }
    }
    out_acc[u] += row;
    weight += row;
  }
  if (!weighted) arcs = static_cast<EdgeId>(weight);
  return {.arcs = arcs, .weight = weight};
}

/// Calls visit(e) for every edge of an undirected shard with both
/// endpoints in `alive`, in stream order: an edge shard through the
/// alive-first filter, a row shard in the order UndirectedGraphStream
/// yields it ((u, v) for v >= u). For runs whose per-pass state depends on
/// the edge order (a Count-Sketch, a survivor buffer).
template <typename VisitFn>
inline void VisitSurvivors(const Shard& shard, const NodeSet& alive,
                           VisitFn&& visit) {
  if (shard.graph == nullptr) {
    AliveFirst(shard.edges, BothAlive{alive}, visit);
    return;
  }
  const UndirectedGraph& g = *shard.graph;
  for (NodeId u = shard.begin; u < shard.end; ++u) {
    if (!alive.Contains(u)) continue;
    const std::span<const NodeId> nbrs = g.Neighbors(u);
    const std::span<const Weight> ws = g.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      if (v < u || !alive.Contains(v)) continue;
      visit(Edge(u, v, ws.empty() ? 1.0 : ws[i]));
    }
  }
}

/// Per-slot totals of a slotted pass: shard s of a round adds into entry s,
/// and the pass totals sum the entries in slot order. Each entry is
/// written by one task at a time.
struct SlotTotals {
  std::array<double, kShardSlots> weight{};
  std::array<EdgeId, kShardSlots> count{};
  // Undirected row shards (AddRows): their self-loop totals, and whether
  // the slot's totals count every edge twice.
  std::array<double, kShardSlots> self_weight{};
  std::array<EdgeId, kShardSlots> self_count{};
  std::array<bool, kShardSlots> rows{};

  void Reset() { *this = SlotTotals{}; }
  void Add(size_t slot, double w, EdgeId c) {
    weight[slot] += w;
    count[slot] += c;
  }
  void AddRows(size_t slot, const UndirectedRowResult& r) {
    Add(slot, r.twice.weight, r.twice.edges);
    self_weight[slot] += r.self.weight;
    self_count[slot] += r.self.edges;
    rows[slot] = true;
  }
  UndirectedPassResult Undirected() const {
    if (std::find(rows.begin(), rows.end(), true) == rows.end()) {
      return {.edges = Sum(count), .weight = Sum(weight)};
    }
    return {.edges = (Sum(count) + Sum(self_count)) / 2,
            .weight = (Sum(weight) + Sum(self_weight)) / 2.0};
  }
  DirectedPassResult Directed() const {
    return {.arcs = Sum(count), .weight = Sum(weight)};
  }

 private:
  template <typename T>
  static T Sum(const std::array<T, kShardSlots>& slots) {
    T total{};
    for (T s : slots) total += s;
    return total;
  }
};

/// The undirected accumulation of one shard of either fill into `deg`,
/// adding the shard's totals to slot `slot` of `totals`.
inline void AccumulateUndirected(const Shard& shard, const NodeSet& alive,
                                 double* deg, SlotTotals& totals,
                                 size_t slot) {
  if (shard.graph != nullptr) {
    totals.AddRows(slot, AccumulateUndirectedRows(*shard.graph, shard.begin,
                                                  shard.end, alive, deg));
    return;
  }
  const UndirectedPassResult r =
      AccumulateUndirectedShard(shard.edges, alive, deg);
  totals.Add(slot, r.weight, r.edges);
}

/// The directed accumulation of one shard of either fill.
inline void AccumulateDirected(const Shard& shard, const NodeSet& s,
                               const NodeSet& t, double* out_acc,
                               double* in_acc, SlotTotals& totals,
                               size_t slot) {
  const DirectedPassResult r =
      shard.digraph != nullptr
          ? AccumulateDirectedRows(*shard.digraph, shard.begin, shard.end, s,
                                   t, out_acc, in_acc)
          : AccumulateDirectedShard(shard.edges, s, t, out_acc, in_acc);
  totals.Add(slot, r.weight, r.arcs);
}

/// out[u] = sum over `slots`, in slot index order, of slot[u]; re-zeros the
/// slots so the next pass starts clean without a memset. Its summation
/// order is part of the bit-identity across thread counts.
inline void ReduceSlots(std::span<std::vector<double>> slots,
                        std::vector<double>& out) {
  const size_t n = out.size();
  for (size_t u = 0; u < n; ++u) {
    double total = 0.0;
    for (std::vector<double>& slot : slots) {
      total += slot[u];
      slot[u] = 0.0;
    }
    out[u] = total;
  }
}

/// One degree array of a run: a single direct vector (unit weights, where
/// every accumulation order gives the same bits) or kShardSlots slot
/// vectors reduced by ReduceSlots. In direct mode every slot aliases
/// `values`, so the shard kernel is the same either way — but aliased slots
/// must never be written concurrently, which is what a run's
/// parallel_shards() guards.
struct AccumPlane {
  std::vector<double> values;              // the reduced per-node result
  std::vector<std::vector<double>> slots;  // empty in direct mode

  void Init(size_t n, bool direct) {
    values.assign(n, 0.0);
    // One slot at a time: no n-sized temporary on top of the planes.
    slots.resize(direct ? 0 : kShardSlots);
    for (std::vector<double>& slot : slots) slot.assign(n, 0.0);
  }
  void BeginPass() {
    // Slot vectors are zero by invariant (Reduce re-zeroes them).
    if (slots.empty()) std::fill(values.begin(), values.end(), 0.0);
  }
  bool slotted() const { return !slots.empty(); }
  double* Slot(size_t s) {
    return slots.empty() ? values.data() : slots[s].data();
  }
  void Reduce() {
    if (!slots.empty()) ReduceSlots(slots, values);
  }
};

}  // namespace densest

#endif  // DENSEST_CORE_ALIVE_KERNEL_H_

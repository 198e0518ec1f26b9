// Copyright 2026 The densest Authors.
// The alive-first shard kernel: the one alive-filtered edge loop behind
// every batched streaming pass, shared by PassEngine, MultiRunEngine's
// fused runs and the sketched runs, plus the slot reduction both engines use.
//
// Peeling removes a constant fraction of S every pass (Bahmani et al., §6),
// so after the first pass most streamed edges are dead. Rather than add
// keep ∈ {0, 1} into the n-sized degree arrays for every edge (two random
// read-modify-writes per dead edge), the kernel first collects the indices
// of a block's surviving edges in a stack array, then touches the degree
// arrays for those edges only, in stream order. Every sum keeps its order,
// so results keep their bits, weighted streams included.

#ifndef DENSEST_CORE_ALIVE_KERNEL_H_
#define DENSEST_CORE_ALIVE_KERNEL_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/subgraph.h"
#include "graph/types.h"

namespace densest {

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

/// Edges per filter block; the survivor indices of one block live in a
/// kAliveBlock-entry uint16_t array on the stack.
inline constexpr size_t kAliveBlock = 1024;

/// Calls visit(e) for every edge of `shard` with keep(e) true, in stream
/// order. keep must not read anything visit writes; keep.all() true
/// promises that every edge passes (S = V, the first pass of every peel)
/// and skips the membership tests. visit may overwrite shard entries at or
/// before the edge it is given (in-place compaction).
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

/// Survivor sink that appends to `out` when it is non-null.
struct AppendSurvivors {
  std::vector<Edge>* out = nullptr;
  void operator()(const Edge& e) const {
    if (out != nullptr) out->push_back(e);
  }
};

/// Undirected kernel over one shard: every edge with both endpoints in
/// `alive` adds e.w to deg[e.u], deg[e.v] and the returned weight, counts
/// once, and is then handed to on_survivor (an append or an in-place
/// compaction). The returned totals start from zero.
template <typename SurvivorFn = AppendSurvivors>
inline UndirectedPassResult AccumulateUndirectedShard(
    std::span<const Edge> shard, const NodeSet& alive, double* deg,
    SurvivorFn&& on_survivor = {}) {
  UndirectedPassResult r;
  AliveFirst(shard, BothAlive{alive}, [&](const Edge& e) {
    deg[e.u] += e.w;
    deg[e.v] += e.w;
    r.weight += e.w;
    ++r.edges;
    on_survivor(e);
  });
  return r;
}

/// Directed kernel over one shard: every arc u->v with u in `s` and v in
/// `t` adds e.w to out_acc[u], in_acc[v] and the returned weight, and
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

/// Per-slot totals of a slotted pass: shard s of a round adds into entry s,
/// and the pass totals sum the entries in slot order.
template <size_t kSlots>
struct SlotTotals {
  std::array<double, kSlots> weight{};
  std::array<EdgeId, kSlots> count{};

  void Reset() {
    weight.fill(0.0);
    count.fill(0);
  }
  void Add(size_t slot, double w, EdgeId c) {
    weight[slot] += w;
    count[slot] += c;
  }
  double TotalWeight() const {
    double w = 0.0;
    for (double s : weight) w += s;
    return w;
  }
  EdgeId TotalCount() const {
    EdgeId c = 0;
    for (EdgeId s : count) c += s;
    return c;
  }
  UndirectedPassResult Undirected() const {
    return {.edges = TotalCount(), .weight = TotalWeight()};
  }
  DirectedPassResult Directed() const {
    return {.arcs = TotalCount(), .weight = TotalWeight()};
  }
};

/// out[u] = sum over `slots`, in slot index order, of slot[u]; re-zeros the
/// slots so the next pass starts clean without a memset. The one slot
/// reduction of both engines — its summation order is part of the
/// fused/sequential bit-identity.
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

}  // namespace densest

#endif  // DENSEST_CORE_ALIVE_KERNEL_H_

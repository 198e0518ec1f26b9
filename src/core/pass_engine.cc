#include "core/pass_engine.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace densest {

namespace {

/// Contiguous row range of a CSR kernel shard.
struct RowShard {
  NodeId begin = 0;
  NodeId end = 0;  // exclusive
};

/// Splits [0, n) into row ranges of roughly `entries_per_shard` adjacency
/// entries each (rows are never split). Depends only on the graph shape,
/// so shard boundaries are identical for every thread count.
template <typename DegreeFn>
std::vector<RowShard> ShardRows(NodeId n, const DegreeFn& degree,
                                size_t entries_per_shard) {
  std::vector<RowShard> shards;
  RowShard cur;
  size_t entries = 0;
  for (NodeId u = 0; u < n; ++u) {
    entries += degree(u);
    if (entries >= entries_per_shard) {
      cur.end = u + 1;
      shards.push_back(cur);
      cur.begin = u + 1;
      entries = 0;
    }
  }
  cur.end = n;
  if (cur.end > cur.begin) shards.push_back(cur);
  return shards;
}

}  // namespace

PassEngine::PassEngine(const PassEngineOptions& options) {
  num_threads_ = options.num_threads;
  if (num_threads_ == 0) {
    num_threads_ = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

PassEngine::~PassEngine() = default;

void PassEngine::EnsureBatchBuffer() {
  batch_.resize(kShardSlots * kShardEdges);
}

void PassEngine::EnsureAccumulators(size_t n, size_t planes) {
  acc_.resize(planes * kShardSlots);
  for (std::vector<double>& slot : acc_) {
    // Slots are zero here by invariant: fresh allocations start zeroed and
    // ReduceAndClear re-zeroes after every pass. A size change re-zeroes.
    if (slot.size() != n) slot.assign(n, 0.0);
  }
  totals_.Reset();
}

size_t PassEngine::FillShards(
    EdgeStream& stream, std::array<std::span<const Edge>, kShardSlots>& shards) {
  return FillShardRound(
      [&stream](Edge* scratch, size_t cap) {
        return stream.NextView(scratch, cap);
      },
      batch_.data(), shards);
}

void PassEngine::DispatchRound(size_t shards,
                               const std::function<void(size_t)>& fn) {
  // The central fan-out seam: every sharded pass kernel funnels its rounds
  // here, so round/shard tallies and the round span cover all of them.
  DENSEST_TRACE_SPAN("core.pass_round");
  DENSEST_METRIC_COUNTER("core.pass_rounds").Inc();
  DENSEST_METRIC_COUNTER("core.pass_shards").Inc(shards);
  if (pool_ != nullptr && shards > 1) {
    pool_->ParallelFor(shards, fn);
  } else {
    for (size_t i = 0; i < shards; ++i) fn(i);
  }
}

UndirectedPassResult PassEngine::RunUndirected(EdgeStream& stream,
                                               const NodeSet& alive,
                                               std::vector<double>& degrees,
                                               const CancelToken* cancel) {
  return RunUndirectedImpl(stream, alive, degrees, nullptr, cancel);
}

UndirectedPassResult PassEngine::RunUndirectedCollect(
    EdgeStream& stream, const NodeSet& alive, std::vector<double>& degrees,
    std::vector<Edge>* survivors, const CancelToken* cancel) {
  return RunUndirectedImpl(stream, alive, degrees, survivors, cancel);
}

UndirectedPassResult PassEngine::RunUndirectedImpl(
    EdgeStream& stream, const NodeSet& alive, std::vector<double>& degrees,
    std::vector<Edge>* survivors, const CancelToken* cancel) {
  DENSEST_TRACE_SPAN("core.pass_undirected");
  DENSEST_METRIC_COUNTER("core.passes").Inc();
  if (survivors == nullptr) {
    if (const UndirectedGraph* g = stream.UndirectedCsrView()) {
      stream.Reset();  // keeps pass accounting uniform with the batch path
      return RunUndirectedCsr(*g, alive, degrees, cancel);
    }
  }
  if (UseDirectPath(stream)) {
    // Unit weights, sequential: accumulate straight into `degrees`, a whole
    // view at a time. Exact integer-valued sums make this bit-identical to
    // any slotted schedule.
    std::fill(degrees.begin(), degrees.end(), 0.0);
    UndirectedPassResult out;
    ForEachView(stream, cancel, [&](std::span<const Edge> view) {
      const UndirectedPassResult r = AccumulateUndirectedShard(
          view, alive, degrees.data(), AppendSurvivors{survivors});
      out.weight += r.weight;
      out.edges += r.edges;
    });
    return out;
  }

  EnsureBatchBuffer();
  stream.Reset();
  EnsureAccumulators(degrees.size(), /*planes=*/1);
  std::array<std::span<const Edge>, kShardSlots> shards;
  for (;;) {
    if (ShouldStop(cancel)) break;
    const size_t count = FillShards(stream, shards);
    if (count == 0) break;
    DispatchRound(count, [&](size_t s) {
      std::vector<Edge>* out =
          survivors != nullptr ? &slot_survivors_[s] : nullptr;
      if (out != nullptr) out->clear();
      const UndirectedPassResult r = AccumulateUndirectedShard(
          shards[s], alive, acc_[s].data(), AppendSurvivors{out});
      totals_.Add(s, r.weight, r.edges);
    });
    if (survivors != nullptr) {
      // Slot order == stream order: survivors stay in stream order.
      for (size_t s = 0; s < count; ++s) {
        survivors->insert(survivors->end(), slot_survivors_[s].begin(),
                          slot_survivors_[s].end());
      }
    }
    if (count < kShardSlots) break;
  }

  const UndirectedPassResult out = totals_.Undirected();
  ReduceAndClear(/*plane=*/0, degrees);
  return out;
}

UndirectedPassResult PassEngine::RunUndirectedCsr(
    const UndirectedGraph& g, const NodeSet& alive,
    std::vector<double>& degrees, const CancelToken* cancel) {
  const NodeId n = g.num_nodes();
  const bool weighted = g.is_weighted();
  // The sequential kernels below have no round structure, so they poll the
  // token every ~kShardEdges adjacency entries — the same bounded unit of
  // work as one shard. poll_countdown counts entries down to the next poll.
  size_t poll_countdown = kShardEdges;
  // Every undirected edge {u, v} occupies the adjacency slot (u, v) AND
  // (v, u) — a self-loop only (u, u). Walking ALL slots therefore adds each
  // edge's weight to both endpoint degrees with purely sequential reads;
  // edge/weight totals are halved at the end (self-loops counted twice via
  // `self` so the halving stays exact).
  if (pool_ == nullptr && !weighted) {
    std::fill(degrees.begin(), degrees.end(), 0.0);
    double twice_weight = 0.0;
    double self_weight = 0.0;
    if (!g.has_self_loops()) {
      // Two-way unroll with independent row accumulators: breaks the
      // serial FP-add dependency chain. Reassociation is safe — unit
      // weights sum exactly, so every order gives the same bits.
      for (NodeId u = 0; u < n; ++u) {
        if (!alive.Contains(u)) continue;  // whole dead rows cost nothing
        auto nbrs = g.Neighbors(u);
        if (nbrs.size() >= poll_countdown) {
          if (ShouldStop(cancel)) break;
          poll_countdown = kShardEdges;
        } else {
          poll_countdown -= nbrs.size();
        }
        double row0 = 0.0, row1 = 0.0;
        size_t i = 0;
        for (; i + 2 <= nbrs.size(); i += 2) {
          const NodeId v0 = nbrs[i];
          const NodeId v1 = nbrs[i + 1];
          const double k0 = alive.Contains(v0) ? 1.0 : 0.0;
          const double k1 = alive.Contains(v1) ? 1.0 : 0.0;
          degrees[v0] += k0;
          degrees[v1] += k1;
          row0 += k0;
          row1 += k1;
        }
        if (i < nbrs.size()) {
          const NodeId v = nbrs[i];
          const double k = alive.Contains(v) ? 1.0 : 0.0;
          degrees[v] += k;
          row0 += k;
        }
        twice_weight += row0 + row1;
      }
    } else {
      for (NodeId u = 0; u < n; ++u) {
        if (!alive.Contains(u)) continue;
        auto nbrs = g.Neighbors(u);
        if (nbrs.size() >= poll_countdown) {
          if (ShouldStop(cancel)) break;
          poll_countdown = kShardEdges;
        } else {
          poll_countdown -= nbrs.size();
        }
        double row = 0.0;
        for (NodeId v : nbrs) {
          const double keep = alive.Contains(v) ? 1.0 : 0.0;
          degrees[v] += keep;
          row += keep;
          if (v == u) {  // self-loop: single slot, degree counts it twice
            degrees[u] += keep;
            self_weight += keep;
          }
        }
        twice_weight += row;
      }
    }
    UndirectedPassResult out;
    out.weight = (twice_weight + self_weight) / 2.0;
    out.edges = static_cast<EdgeId>(twice_weight + self_weight) / 2;
    return out;
  }

  EnsureAccumulators(n, /*planes=*/1);
  const std::vector<RowShard> shards = ShardRows(
      n, [&g](NodeId u) { return g.Degree(u); }, 2 * kShardEdges);
  SlotTotals<kShardSlots> self_totals;  // self-loops, counted once
  for (size_t base = 0; base < shards.size(); base += kShardSlots) {
    if (ShouldStop(cancel)) break;
    const size_t count = std::min(kShardSlots, shards.size() - base);
    DispatchRound(count, [&](size_t s) {
      const RowShard shard = shards[base + s];
      std::vector<double>& acc = acc_[s];
      double twice_weight = 0.0;
      double self_weight = 0.0;
      EdgeId twice_edges = 0;
      EdgeId self_edges = 0;
      for (NodeId u = shard.begin; u < shard.end; ++u) {
        if (!alive.Contains(u)) continue;
        auto nbrs = g.Neighbors(u);
        auto ws = g.NeighborWeights(u);
        for (size_t i = 0; i < nbrs.size(); ++i) {
          const NodeId v = nbrs[i];
          if (!alive.Contains(v)) continue;
          const double w = weighted ? ws[i] : 1.0;
          acc[v] += w;
          twice_weight += w;
          ++twice_edges;
          if (v == u) {
            acc[u] += w;
            self_weight += w;
            ++self_edges;
          }
        }
      }
      totals_.Add(s, twice_weight, twice_edges);
      self_totals.Add(s, self_weight, self_edges);
    });
  }
  UndirectedPassResult out;
  out.weight = (totals_.TotalWeight() + self_totals.TotalWeight()) / 2.0;
  out.edges = (totals_.TotalCount() + self_totals.TotalCount()) / 2;
  ReduceAndClear(/*plane=*/0, degrees);
  return out;
}

UndirectedPassResult PassEngine::RunUndirectedBuffer(
    std::vector<Edge>& edges, const NodeSet& alive,
    std::vector<double>& degrees, bool compact, const CancelToken* cancel) {
  DENSEST_TRACE_SPAN("core.pass_undirected");
  DENSEST_METRIC_COUNTER("core.passes").Inc();
  EnsureAccumulators(degrees.size(), /*planes=*/1);
  const size_t total = edges.size();
  const size_t round_cap = kShardSlots * kShardEdges;
  size_t write = 0;
  std::array<size_t, kShardSlots> kept{};
  for (size_t start = 0; start < total; start += round_cap) {
    if (ShouldStop(cancel)) {
      // A compacting pass abandoned mid-buffer must not drop the rounds it
      // never scanned: keep the unscanned tail verbatim so the buffer stays
      // a superset of the surviving edges (the caller discards the pass).
      if (compact && write < start) {
        std::memmove(edges.data() + write, edges.data() + start,
                     (total - start) * sizeof(Edge));
      }
      if (compact) write += total - start;
      break;
    }
    const size_t round_edges = std::min(round_cap, total - start);
    const size_t shards = (round_edges + kShardEdges - 1) / kShardEdges;
    DispatchRound(shards, [&](size_t s) {
      Edge* base = edges.data() + start + s * kShardEdges;
      const size_t count = std::min(kShardEdges, round_edges - s * kShardEdges);
      size_t out_i = 0;
      const UndirectedPassResult r = AccumulateUndirectedShard(
          {base, count}, alive, acc_[s].data(), [&](const Edge& e) {
            if (compact) base[out_i++] = e;  // out_i never passes e
          });
      kept[s] = compact ? out_i : count;
      totals_.Add(s, r.weight, r.edges);
    });
    if (compact) {
      // Stitch the per-shard survivor runs back together in shard order;
      // the relative edge order is exactly the original stream order.
      for (size_t s = 0; s < shards; ++s) {
        Edge* base = edges.data() + start + s * kShardEdges;
        if (kept[s] > 0 && edges.data() + write != base) {
          std::memmove(edges.data() + write, base, kept[s] * sizeof(Edge));
        }
        write += kept[s];
      }
    }
  }
  if (compact) edges.resize(write);

  const UndirectedPassResult out = totals_.Undirected();
  ReduceAndClear(/*plane=*/0, degrees);
  return out;
}

DirectedPassResult PassEngine::RunDirected(EdgeStream& stream,
                                           const NodeSet& s_set,
                                           const NodeSet& t_set,
                                           std::vector<double>& out_to_t,
                                           std::vector<double>& in_from_s,
                                           const CancelToken* cancel) {
  DENSEST_TRACE_SPAN("core.pass_directed");
  DENSEST_METRIC_COUNTER("core.passes").Inc();
  if (const DirectedGraph* g = stream.DirectedCsrView()) {
    stream.Reset();
    return RunDirectedCsr(*g, s_set, t_set, out_to_t, in_from_s, cancel);
  }
  if (UseDirectPath(stream)) {
    std::fill(out_to_t.begin(), out_to_t.end(), 0.0);
    std::fill(in_from_s.begin(), in_from_s.end(), 0.0);
    DirectedPassResult out;
    ForEachView(stream, cancel, [&](std::span<const Edge> view) {
      const DirectedPassResult r = AccumulateDirectedShard(
          view, s_set, t_set, out_to_t.data(), in_from_s.data());
      out.weight += r.weight;
      out.arcs += r.arcs;
    });
    return out;
  }

  EnsureBatchBuffer();
  stream.Reset();
  EnsureAccumulators(out_to_t.size(), /*planes=*/2);
  std::array<std::span<const Edge>, kShardSlots> shards;
  for (;;) {
    if (ShouldStop(cancel)) break;
    const size_t count = FillShards(stream, shards);
    if (count == 0) break;
    DispatchRound(count, [&](size_t s) {
      const DirectedPassResult r =
          AccumulateDirectedShard(shards[s], s_set, t_set, acc_[s].data(),
                                  acc_[kShardSlots + s].data());
      totals_.Add(s, r.weight, r.arcs);
    });
    if (count < kShardSlots) break;
  }

  const DirectedPassResult out = totals_.Directed();
  ReduceAndClear(/*plane=*/0, out_to_t);
  ReduceAndClear(/*plane=*/1, in_from_s);
  return out;
}

DirectedPassResult PassEngine::RunDirectedCsr(const DirectedGraph& g,
                                              const NodeSet& s_set,
                                              const NodeSet& t_set,
                                              std::vector<double>& out_to_t,
                                              std::vector<double>& in_from_s,
                                              const CancelToken* cancel) {
  const NodeId n = g.num_nodes();
  const bool weighted = g.is_weighted();
  size_t poll_countdown = kShardEdges;  // see RunUndirectedCsr
  // Arcs occupy exactly one adjacency slot, so no halving is needed; the
  // out-degree of a row accumulates in a register and stores once.
  if (pool_ == nullptr && !weighted) {
    std::fill(out_to_t.begin(), out_to_t.end(), 0.0);
    std::fill(in_from_s.begin(), in_from_s.end(), 0.0);
    DirectedPassResult out;
    for (NodeId u = 0; u < n; ++u) {
      if (!s_set.Contains(u)) continue;
      auto nbrs = g.OutNeighbors(u);
      if (nbrs.size() >= poll_countdown) {
        if (ShouldStop(cancel)) break;
        poll_countdown = kShardEdges;
      } else {
        poll_countdown -= nbrs.size();
      }
      double row = 0.0;
      for (NodeId v : nbrs) {
        const double keep = t_set.Contains(v) ? 1.0 : 0.0;
        in_from_s[v] += keep;
        row += keep;
      }
      out_to_t[u] = row;
      out.weight += row;
    }
    out.arcs = static_cast<EdgeId>(out.weight);
    return out;
  }

  EnsureAccumulators(n, /*planes=*/2);
  const std::vector<RowShard> shards = ShardRows(
      n, [&g](NodeId u) { return g.OutDegree(u); }, 2 * kShardEdges);
  for (size_t base = 0; base < shards.size(); base += kShardSlots) {
    if (ShouldStop(cancel)) break;
    const size_t count = std::min(kShardSlots, shards.size() - base);
    DispatchRound(count, [&](size_t s) {
      const RowShard shard = shards[base + s];
      std::vector<double>& out_acc = acc_[s];
      std::vector<double>& in_acc = acc_[kShardSlots + s];
      double weight = 0.0;
      EdgeId arcs = 0;
      for (NodeId u = shard.begin; u < shard.end; ++u) {
        if (!s_set.Contains(u)) continue;
        auto nbrs = g.OutNeighbors(u);
        auto ws = g.OutNeighborWeights(u);
        double row = 0.0;
        for (size_t i = 0; i < nbrs.size(); ++i) {
          const NodeId v = nbrs[i];
          if (!t_set.Contains(v)) continue;
          const double w = weighted ? ws[i] : 1.0;
          in_acc[v] += w;
          row += w;
          ++arcs;
        }
        out_acc[u] += row;
        weight += row;
      }
      totals_.Add(s, weight, arcs);
    });
  }
  const DirectedPassResult out = totals_.Directed();
  ReduceAndClear(/*plane=*/0, out_to_t);
  ReduceAndClear(/*plane=*/1, in_from_s);
  return out;
}

PassEngine& DefaultPassEngine() {
  // Leaked singleton: worker threads must not be joined during static
  // destruction, where other statics they might touch are already gone.
  // lint:allow(naked-new) — leaked singleton
  static PassEngine* engine = new PassEngine(PassEngineOptions{});
  return *engine;
}

}  // namespace densest

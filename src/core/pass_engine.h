// Copyright 2026 The densest Authors.
// The shared high-throughput implementation of a streaming pass. Every
// peeling algorithm in the library (Algorithms 1-3, Charikar ingestion, the
// sketched variant) drains its stream through this engine instead of the
// one-virtual-call-per-edge scalar loop.
//
// The engine is fast at three layers:
//   1. batching    — edges arrive as zero-copy EdgeStream::NextView views
//                    (a whole round per view on the sequential unit-weight
//                    path, one kShardEdges shard per view when slotted), so
//                    the per-edge virtual dispatch leaves the hot loop;
//   2. alive-first — each view is filtered a block at a time with NodeSet's
//                    word-packed ContainsBoth, and only the survivors touch
//                    the degree arrays (core/alive_kernel.h);
//   3. parallel    — each round of kShardSlots shards fans out across a
//                    ThreadPool into per-slot degree accumulators.
//
// Determinism: shard boundaries are fixed by the stream order (never by the
// thread count), shard i of every round feeds accumulator slot i, and the
// final reduction sums slots in index order. Results are therefore
// bit-identical for 1, 2, ... N threads — threading changes only who
// executes a shard, never what any accumulator sums or in which order.

#ifndef DENSEST_CORE_PASS_ENGINE_H_
#define DENSEST_CORE_PASS_ENGINE_H_

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/alive_kernel.h"
#include "graph/subgraph.h"
#include "graph/types.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief Knobs for a PassEngine.
struct PassEngineOptions {
  /// Worker threads for shard accumulation. 0 = hardware concurrency;
  /// 1 = fully sequential (no pool is created). Any value yields
  /// bit-identical pass results; it only changes wall-clock time.
  size_t num_threads = 0;
};

/// \brief Batched, optionally multi-threaded executor of streaming passes.
///
/// Holds reusable scratch (the batch buffer and the per-slot accumulators),
/// so one engine should be reused across the passes of an algorithm run.
/// An engine is NOT safe for concurrent use from multiple threads; create
/// one engine per concurrent algorithm run instead (every algorithm
/// options struct accepts an `engine` pointer for this).
/// Memory: the deterministic parallel path keeps kShardSlots accumulator
/// vectors of n doubles per plane (8n doubles undirected, 16n directed) —
/// still O(n), but a constant worth knowing at paper scale. Sequential
/// unit-weight passes skip the slots entirely.
class PassEngine {
 public:
  /// Edges per shard. A shard is the unit of work handed to one thread and
  /// the granularity of the deterministic reduction.
  static constexpr size_t kShardEdges = 1 << 14;
  /// Shards (and accumulator slots) per round. Fixed independently of the
  /// thread count so that results never depend on parallelism.
  static constexpr size_t kShardSlots = 8;

  explicit PassEngine(const PassEngineOptions& options = {});
  ~PassEngine();

  /// Pulls up to kShardSlots shard views of kShardEdges each for one round,
  /// reading through `next_view(scratch, cap)` into `batch` (capacity
  /// kShardSlots * kShardEdges). This is THE shard-boundary schedule of the
  /// deterministic reduction: boundaries derive only from the view source,
  /// never from the thread count. Both engines fill their rounds here and
  /// run every shard through the alive-first kernel, so the fused and
  /// sequential schedules cannot drift apart.
  template <typename NextViewFn>
  static size_t FillShardRound(
      NextViewFn&& next_view, Edge* batch,
      std::array<std::span<const Edge>, kShardSlots>& shards) {
    size_t count = 0;
    while (count < kShardSlots) {
      std::span<const Edge> view =
          next_view(batch + count * kShardEdges, kShardEdges);
      if (view.empty()) break;
      shards[count++] = view;
    }
    return count;
  }

  PassEngine(const PassEngine&) = delete;
  PassEngine& operator=(const PassEngine&) = delete;

  /// Resolved worker count (1 means sequential).
  size_t num_threads() const { return num_threads_; }

  /// Streams all edges once and accumulates deg_S for alive nodes.
  /// `degrees` must have size num_nodes and is overwritten.
  ///
  /// Cancellation (all Run* methods): a non-null `cancel` is polled once
  /// per shard round (≤ kShardSlots * kShardEdges edges of work between
  /// polls). On cancellation the pass stops early and returns partial
  /// stats; the caller must poll the token itself (CheckCancel) exactly
  /// like it checks stream.status(), and must not peel on the truncated
  /// stats. A null token costs one pointer test per round.
  UndirectedPassResult RunUndirected(EdgeStream& stream, const NodeSet& alive,
                                     std::vector<double>& degrees,
                                     const CancelToken* cancel = nullptr);

  /// Same pass, but additionally appends every surviving edge (both
  /// endpoints alive) to *survivors in stream order — the ingestion step of
  /// the paper's §6.3 in-memory compaction.
  UndirectedPassResult RunUndirectedCollect(EdgeStream& stream,
                                            const NodeSet& alive,
                                            std::vector<double>& degrees,
                                            std::vector<Edge>* survivors,
                                            const CancelToken* cancel = nullptr);

  /// In-memory pass over an edge buffer (the post-compaction §6.3 path).
  /// When `compact` is true, dead edges are filtered out of `edges` in
  /// place (preserving order), so the buffer keeps shrinking with S.
  UndirectedPassResult RunUndirectedBuffer(std::vector<Edge>& edges,
                                           const NodeSet& alive,
                                           std::vector<double>& degrees,
                                           bool compact,
                                           const CancelToken* cancel = nullptr);

  /// Streams all arcs once; accumulates out_to_t[u] over u in S and
  /// in_from_s[v] over v in T. Both vectors must have size num_nodes and
  /// are overwritten.
  DirectedPassResult RunDirected(EdgeStream& stream, const NodeSet& s,
                                 const NodeSet& t,
                                 std::vector<double>& out_to_t,
                                 std::vector<double>& in_from_s,
                                 const CancelToken* cancel = nullptr);

  /// Batched drain: invokes fn(edge) sequentially, in stream order, for
  /// every edge of one full pass. Replaces scalar ForEachEdge on hot paths
  /// whose per-edge work is not a degree accumulation (graph ingestion,
  /// sketch updates). Zero-copy where the stream supports NextView.
  template <typename Fn>
  void ForEachEdgeBatched(EdgeStream& stream, Fn&& fn) {
    ForEachView(stream, nullptr, [&](std::span<const Edge> view) {
      for (const Edge& e : view) fn(e);
    });
  }

  /// Batched drain filtered to edges with both endpoints in `alive`,
  /// through the alive-first kernel; fn must not modify `alive`.
  template <typename Fn>
  void ForEachAliveEdge(EdgeStream& stream, const NodeSet& alive, Fn&& fn) {
    ForEachView(stream, nullptr, [&](std::span<const Edge> view) {
      AliveFirst(view, BothAlive{alive}, fn);
    });
  }

 private:
  UndirectedPassResult RunUndirectedImpl(EdgeStream& stream,
                                         const NodeSet& alive,
                                         std::vector<double>& degrees,
                                         std::vector<Edge>* survivors,
                                         const CancelToken* cancel);

  /// CSR kernels: walk the adjacency arrays directly (no Edge records).
  /// In the undirected graph every edge occupies two adjacency slots (a
  /// self-loop one), so degrees accumulate naturally and the totals are
  /// halved at the end.
  UndirectedPassResult RunUndirectedCsr(const UndirectedGraph& g,
                                        const NodeSet& alive,
                                        std::vector<double>& degrees,
                                        const CancelToken* cancel);
  DirectedPassResult RunDirectedCsr(const DirectedGraph& g, const NodeSet& s,
                                    const NodeSet& t,
                                    std::vector<double>& out_to_t,
                                    std::vector<double>& in_from_s,
                                    const CancelToken* cancel);

  /// Invokes fn(view) for the views of one full pass over `stream`, up to
  /// a whole batch buffer each; a non-null `cancel` is polled per view.
  template <typename Fn>
  void ForEachView(EdgeStream& stream, const CancelToken* cancel, Fn&& fn) {
    stream.Reset();
    EnsureBatchBuffer();
    for (;;) {
      if (ShouldStop(cancel)) break;
      std::span<const Edge> view =
          stream.NextView(batch_.data(), batch_.size());
      if (view.empty()) break;
      fn(view);
    }
  }

  /// FillShardRound over the stream and this engine's batch buffer.
  size_t FillShards(EdgeStream& stream,
                    std::array<std::span<const Edge>, kShardSlots>& shards);
  void EnsureBatchBuffer();
  /// Sizes `planes` accumulator planes of kShardSlots slots to n doubles
  /// each and resets the per-slot totals. Slot vectors are zero on entry to
  /// every pass (freshly allocated or re-zeroed by the previous reduction).
  void EnsureAccumulators(size_t n, size_t planes);
  /// Runs fn(slot) for each shard of the round, on the pool if present.
  void DispatchRound(size_t shards, const std::function<void(size_t)>& fn);
  /// ReduceSlots over the kShardSlots slot vectors of `plane`.
  void ReduceAndClear(size_t plane, std::vector<double>& degrees) {
    ReduceSlots({acc_.data() + plane * kShardSlots, kShardSlots}, degrees);
  }

  /// True when this pass may skip the slot structure entirely and
  /// accumulate into the output arrays in stream order: sequential
  /// execution with exact unit weights gives the same bits any slotted
  /// schedule would.
  bool UseDirectPath(const EdgeStream& stream) const {
    return pool_ == nullptr && stream.HasUnitWeights();
  }

  size_t num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1

  std::vector<Edge> batch_;  // kShardSlots * kShardEdges capacity
  // acc_[plane * kShardSlots + slot]: per-slot accumulation vectors.
  // Undirected passes use one plane; directed passes use two (out/in).
  //
  // Concurrency contract (no mutex by design): slot i of a round is
  // written by exactly one DispatchRound task, and no two tasks share a
  // slot, so the slot vectors need no locking. The hand-off in each
  // direction rides ThreadPool::ParallelFor's completion barrier: the
  // caller's writes before DispatchRound (EnsureAccumulators' zeroing,
  // batch_ fill) happen-before the tasks, and every task's slot writes
  // happen-before ReduceAndClear reads them. Nothing here may be touched
  // while a round is in flight.
  std::vector<std::vector<double>> acc_;
  SlotTotals<kShardSlots> totals_;
  // Per-slot survivor staging for RunUndirectedCollect (flushed in slot
  // order after every round to preserve stream order).
  std::array<std::vector<Edge>, kShardSlots> slot_survivors_;
};

/// Process-wide shared engine (hardware-concurrency threads) used by the
/// free-function pass wrappers and the algorithm entry points. Not for
/// concurrent algorithm runs — those should own a private engine.
PassEngine& DefaultPassEngine();

}  // namespace densest

#endif  // DENSEST_CORE_PASS_ENGINE_H_

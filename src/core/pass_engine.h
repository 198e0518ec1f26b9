// Copyright 2026 The densest Authors.
// The one driver of streaming passes. Every peeling run in the library
// (Algorithms 1-3, the sketched variant, the dynamic service's recompute)
// is a FusedRun, and PassEngine::Drive takes any number of them to
// completion over shared physical scans of a stream: each round of shards
// is fanned across the runs that still need the stream, runs that converge
// drop out, and the loop ends when every run is done. A solo run is simply
// K = 1; the K-run sweeps of core/multi_run.h are free functions over one
// PassEngine.
//
// Each round is filled in one of two ways:
//   edge fill — up to kShardSlots views of kShardEdges edge records pulled
//               zero-copy through EdgeStream::NextView (or, for a run that
//               compacted its survivors in memory, slices of its buffer);
//   row fill  — when the stream exposes a CSR graph of the runs' kind, up
//               to kShardSlots row ranges of about 2 * kShardEdges
//               adjacency entries each, read straight from the CSR arrays.
// Runs accumulate either kind through the kernels of core/alive_kernel.h.
//
// Fan-out has two shapes, chosen per round:
//   run-major  — one task per run walks the round's shards in order; no
//                two threads share anything mutable. Used while the runs
//                taking the round are at least as many as the threads.
//   work-major — with fewer runs than threads, each (run, shard) pair is a
//                task: shard s feeds accumulator slot s of its run, so
//                tasks of one run write disjoint slot planes. Runs whose
//                pass depends on edge order (parallel_shards() false) stay
//                one whole-round task.
//
// Determinism: shard boundaries derive from the stream or graph shape
// only, never from the thread count; shard i of every round feeds slot i,
// and slots are reduced in index order. Every run's results are therefore
// bit-identical for any thread count, fan-out shape and fused width.

#ifndef DENSEST_CORE_PASS_ENGINE_H_
#define DENSEST_CORE_PASS_ENGINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
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

/// \brief One peeling run: private accumulator state plus peel logic,
/// driven pass by pass by PassEngine::Drive. A new peeling variant joins
/// every driver by implementing this interface.
class FusedRun {
 public:
  virtual ~FusedRun() = default;

  /// True once the run needs no further passes.
  virtual bool done() const = 0;
  /// True when the run reads arcs (u -> v) rather than undirected edges;
  /// selects which CSR view the row fill may use.
  virtual bool directed() const { return false; }
  /// Non-null while the run's next pass reads its own in-memory edges
  /// instead of the shared stream (Algorithm 1 after §6.3 compaction).
  /// Drive fills that pass from the buffer, off the shared scan.
  virtual std::vector<Edge>* private_edges() { return nullptr; }
  /// Starts a pass: zero whatever the accumulators need zeroed.
  virtual void BeginPass() = 0;
  /// Folds one shard into accumulator slot `slot`. Shards of one round
  /// arrive either in order from one thread (run-major, or
  /// parallel_shards() false) or concurrently with distinct `slot` values
  /// (work-major).
  virtual void AccumulateShard(const Shard& shard, size_t slot) = 0;
  /// Whether distinct shards of one round may be accumulated concurrently.
  /// True requires slot-isolated accumulators; runs whose pass depends on
  /// edge order (a Count-Sketch, a survivor buffer) return false.
  virtual bool parallel_shards() const = 0;
  /// Ends a pass: reduce slots, apply the peel step.
  virtual void FinishPass() = 0;
};

/// \brief Batched, optionally multi-threaded driver of streaming passes.
///
/// Holds the worker pool and reusable scratch (the batch buffer), so one
/// engine should be reused across runs. An engine is NOT safe for
/// concurrent use from multiple threads; create one engine per concurrent
/// run instead (every algorithm options struct accepts an `engine`
/// pointer for this). Memory is the runs' own: one n-sized plane per
/// degree array in direct mode, kShardSlots planes when slotted.
class PassEngine {
 public:
  explicit PassEngine(const PassEngineOptions& options = {});
  ~PassEngine();

  PassEngine(const PassEngine&) = delete;
  PassEngine& operator=(const PassEngine&) = delete;

  /// Resolved worker count (1 means sequential).
  size_t num_threads() const { return num_threads_; }

  /// Whether `num_runs` runs over `stream` may each keep one direct plane
  /// per degree array instead of kShardSlots slot planes: unit weights
  /// (every accumulation order gives the same bits) and no work-major
  /// split from the first round (no pool, or at least as many runs as
  /// threads). A sweep that later narrows below the thread count keeps its
  /// direct planes; its runs then stay whole-round tasks.
  bool DirectPlanes(const EdgeStream& stream, size_t num_runs) const {
    return stream.HasUnitWeights() &&
           (pool_ == nullptr || num_runs >= num_threads_);
  }

  /// Drives every run in `runs` to completion over shared physical scans
  /// of `stream`, one pass of every unfinished run per iteration. Fails,
  /// abandoning the runs mid-peel, when the stream reports an IO error (a
  /// failing stream ends passes early and silently, and peeling on
  /// truncated statistics would yield plausible-looking wrong answers) or
  /// when `cancel` fires; `cancel` is polled once per round (at most
  /// kShardSlots shards of work between polls).
  Status Drive(EdgeStream& stream, std::span<FusedRun* const> runs,
               const CancelToken* cancel);

  /// Physical scans of the stream the last Drive() performed.
  uint64_t last_physical_passes() const { return last_physical_passes_; }
  /// Stream passes summed over the runs of the last Drive(): what the same
  /// runs cost in scans one at a time. The fused saving is
  /// last_logical_passes() / last_physical_passes().
  uint64_t last_logical_passes() const { return last_logical_passes_; }
  /// Edges read across the last Drive()'s scans.
  uint64_t last_edges_scanned() const { return last_edges_scanned_; }

  /// One undirected pass as a one-run Drive: accumulates deg_S for alive
  /// nodes. `degrees` must have size num_nodes and is overwritten. On an
  /// IO error or cancellation the returned stats and `degrees` are
  /// meaningless; the caller checks stream.status() / the token.
  UndirectedPassResult RunUndirected(EdgeStream& stream, const NodeSet& alive,
                                     std::vector<double>& degrees,
                                     const CancelToken* cancel = nullptr);

  /// One directed pass as a one-run Drive: accumulates out_to_t[u] over u
  /// in S and in_from_s[v] over v in T. Both vectors must have size
  /// num_nodes and are overwritten.
  DirectedPassResult RunDirected(EdgeStream& stream, const NodeSet& s,
                                 const NodeSet& t,
                                 std::vector<double>& out_to_t,
                                 std::vector<double>& in_from_s,
                                 const CancelToken* cancel = nullptr);

  /// Batched drain: invokes fn(edge) sequentially, in stream order, for
  /// every edge of one full pass. For hot paths whose per-edge work is not
  /// a peel (graph ingestion). Zero-copy where the stream supports NextView.
  template <typename Fn>
  void ForEachEdgeBatched(EdgeStream& stream, Fn&& fn) {
    stream.Reset();
    batch_.resize(kShardSlots * kShardEdges);
    for (;;) {
      const std::span<const Edge> view =
          stream.NextView(batch_.data(), batch_.size());
      if (view.empty()) break;
      for (const Edge& e : view) fn(e);
    }
  }

 private:
  using Shards = std::array<Shard, kShardSlots>;

  /// Runs rounds filled by `fill(shards_)` (which returns the shard count)
  /// through `runs` until a short round, an empty one, or cancellation.
  template <typename FillFn>
  void ScanRounds(FillFn&& fill, std::span<FusedRun* const> runs,
                  const CancelToken* cancel);
  /// Fans one round of `count` shards across `runs`.
  void Accumulate(std::span<FusedRun* const> runs, size_t count);
  /// Runs fn(i) for i in [0, count), on the pool if present.
  void Dispatch(size_t count, const std::function<void(size_t)>& fn);
  /// Scratch plane `i` of RunUndirected/RunDirected, taking over `out`'s
  /// storage as its result vector; SwapBack reduces and returns it.
  AccumPlane& PassPlane(size_t i, std::vector<double>& out, bool direct);
  void SwapBack(size_t i, std::vector<double>& out);

  size_t num_threads_ = 1;
  // Concurrency contract (no mutex by design): every task of a round
  // writes one (run, slot) accumulator plane no other task of that round
  // touches, and the round's ParallelFor completion barrier is the only
  // publication point — the fill happens-before the tasks, task writes
  // happen-before the slot-order reduction that reads them. No engine
  // state may be touched while a round is in flight.
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1
  std::vector<Edge> batch_;           // kShardSlots * kShardEdges capacity
  Shards shards_;
  /// (run, shard) task list scratch for work-major rounds.
  std::vector<std::pair<uint32_t, uint32_t>> tasks_;
  /// RunUndirected/RunDirected planes, kept so their slots are allocated
  /// once per engine rather than once per pass.
  std::array<AccumPlane, 2> pass_planes_;

  uint64_t last_physical_passes_ = 0;
  uint64_t last_logical_passes_ = 0;
  uint64_t last_edges_scanned_ = 0;
};

/// Process-wide shared engine (hardware-concurrency threads) used by the
/// algorithm entry points when no engine is supplied. Not for concurrent
/// algorithm runs — those should own a private engine.
PassEngine& DefaultPassEngine();

}  // namespace densest

#endif  // DENSEST_CORE_PASS_ENGINE_H_

// Copyright 2026 The densest Authors.
// Fused multi-run passes: peel every configuration in one scan of the
// stream.
//
// The directed c-search tries O(log_delta n) values of c, and the
// epsilon-sweep benches try a dozen epsilons — and every one of those runs
// re-scans the same edges. Bahmani et al. observe the candidate c values
// "can be tried in parallel" over the same passes; MultiRunEngine is that
// observation as a subsystem. It holds K independent peeling runs (each
// with its own alive sets, degree accumulators and threshold rule from
// core/peel_runs.h) and drives all of them from ONE physical scan per
// pass: each chunk pulled through a PassCursor is fanned across the active
// runs on the ThreadPool. Runs that converge drop out of the fan-out; the
// pass loop ends when all runs are done. Total physical scans = max over
// runs of their pass count, instead of the sum.
//
// Fan-out has two shapes, selected automatically per chunk round:
//   run-major  — a thread owns ONE run's accumulators for the whole round
//                and walks the round's shards in order. No two threads
//                share anything mutable. The right shape while active runs
//                K >= threads.
//   work-major — once K < threads (a small sweep, or a big one whose runs
//                have mostly converged), run-major would idle cores. Each
//                (run, shard) pair becomes its own task instead: shard s of
//                a round feeds accumulator slot s of its run — exactly
//                PassEngine's shard/slot schedule — so tasks for the same
//                run write disjoint slot planes and can proceed
//                concurrently. Runs whose accumulation is order-dependent
//                within a pass (FusedRun::parallel_shards() == false, e.g.
//                the sketched runs whose Count-Sketch updates must follow
//                stream order) stay whole-round tasks.
//
// Determinism: each run consumes shard s into accumulator slot s through
// the same alive-first kernel PassEngine uses (core/alive_kernel.h), and
// slots are reduced in index order by the shared ReduceSlots (PassEngine's
// schedule: kShardEdges-edge shards, shard i of a round into slot i,
// filled by PassEngine::FillShardRound), so every per-run result is
// bit-identical to a sequential run on the same stream — for any fan-out
// thread count and either fan-out shape; threading only changes who
// executes a shard, never what any accumulator sums or in which order. The
// one caveat: a *weighted* stream that exposes a CSR view is accumulated
// here through the batched schedule, while a solo PassEngine run would use
// its CSR row kernel, whose floating-point order differs; unit-weight
// streams (the common case, where sums are exact) and weighted record
// streams agree bit-for-bit on every path.
//
// Memory: per run, one n-sized double plane per degree array on
// unit-weight streams driven run-major; kShardSlots planes per degree
// array on weighted streams, and on unit-weight streams when work-major
// shard-splitting may engage (the price of slot-isolated concurrency) —
// O(K n) either way, the semi-streaming budget times the fused width.

#ifndef DENSEST_CORE_MULTI_RUN_H_
#define DENSEST_CORE_MULTI_RUN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/density.h"
#include "core/pass_engine.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief How Drive() spreads a chunk round's accumulation across threads.
enum class MultiRunFanOut {
  /// Run-major while active runs >= threads, work-major once fewer runs
  /// than threads remain. The default: never idles cores, never pays the
  /// task-splitting overhead while run-major already saturates the pool.
  kAuto,
  /// Always one task per run (PR 2's original behaviour).
  kRunMajor,
  /// Always split shards within runs (testing, and few-runs/many-threads
  /// sweeps where every round benefits).
  kWorkMajor,
};

/// \brief Knobs for a MultiRunEngine.
struct MultiRunOptions {
  /// Worker threads for the fan-out. 0 = hardware concurrency; 1 = fully
  /// sequential. Any value yields bit-identical results; it only changes
  /// wall-clock time.
  size_t num_threads = 0;
  /// Fan-out shape (see MultiRunFanOut). Any value yields bit-identical
  /// results.
  MultiRunFanOut fan_out = MultiRunFanOut::kAuto;
  /// Optional cooperative cancellation for Drive() (the repo-wide options
  /// convention, common/cancel.h): polled once per chunk round of the
  /// shared scan. The sweep entry points (Run*Runs) ignore this and take
  /// their token from the per-run option structs instead — the scan is
  /// physically shared, so one token governs the whole sweep.
  const CancelToken* cancel = nullptr;
};

/// \brief Drives K independent peeling runs from shared physical scans.
///
/// Holds reusable scratch (chunk buffer, a sequential PassEngine for
/// post-compaction buffer passes), so one engine should be reused across
/// sweeps. Not safe for concurrent use from multiple threads; create one
/// engine per concurrent sweep.
class MultiRunEngine {
 public:
  /// Chunk granularity, shared with PassEngine so fused accumulation
  /// reproduces its shard/slot schedule bit-for-bit.
  static constexpr size_t kShardEdges = PassEngine::kShardEdges;
  static constexpr size_t kShardSlots = PassEngine::kShardSlots;

  /// \brief One fused run: private accumulator state plus peel logic,
  /// driven by Drive(). Implementations exist for Algorithms 1-3 (behind
  /// the Run*Runs entry points below) and for the sketched Algorithm 1
  /// (sketch/sketch_runs.h); new peeling variants join the fusion by
  /// implementing this interface, not by touching the engine.
  class FusedRun {
   public:
    virtual ~FusedRun() = default;

    /// True once the run needs no further passes of any kind.
    virtual bool done() const = 0;
    /// True while the run needs the next pass over the shared stream.
    /// A run that is not done yet returns false to leave the scan (e.g.
    /// Algorithm 1 after §6.3 compaction); Drive() then calls
    /// FinishOffStream once and excludes it from further fan-out.
    virtual bool wants_stream() const { return !done(); }
    /// Starts a pass: zero whatever the accumulators need zeroed.
    virtual void BeginPass() = 0;
    /// Folds one shard into accumulator slot `slot`. Shards of one round
    /// arrive either in order from a single thread (run-major, or
    /// parallel_shards() == false) or concurrently from several threads
    /// with distinct `slot` values (work-major).
    virtual void AccumulateShard(std::span<const Edge> shard,
                                 size_t slot) = 0;
    /// Whether distinct shards of one round may be accumulated
    /// concurrently. True requires slot-isolated accumulators (each slot
    /// writes its own plane, reduced in slot order afterwards). Runs whose
    /// per-pass state is order-dependent — a Count-Sketch that must see
    /// updates in stream order, a survivor buffer appended in stream
    /// order — return false and stay sequential within each round.
    virtual bool parallel_shards() const = 0;
    /// Ends a pass: reduce slots, apply the peel step.
    virtual void FinishPass() = 0;
    /// Finishes a run that left the scan (wants_stream() false, done()
    /// false) over its private state; costs no physical scans.
    virtual void FinishOffStream(PassEngine& engine) { (void)engine; }
  };

  explicit MultiRunEngine(const MultiRunOptions& options = {});
  ~MultiRunEngine();

  MultiRunEngine(const MultiRunEngine&) = delete;
  MultiRunEngine& operator=(const MultiRunEngine&) = delete;

  /// Resolved fan-out width (1 means sequential).
  size_t num_threads() const { return num_threads_; }

  /// True when Drive() may split shards within a run (a pool exists and
  /// the fan-out mode permits work-major rounds). Runs backing such a
  /// sweep must allocate slot-isolated accumulators to honour
  /// parallel_shards(); unit-weight sums are integer-exact, so the slotted
  /// planes change memory, never bits.
  bool may_split_shards() const {
    return pool_ != nullptr && fan_out_ != MultiRunFanOut::kRunMajor;
  }

  /// Drives every run in `runs` to completion over shared physical scans
  /// of `stream`. Updates last_physical_passes() / last_edges_scanned().
  /// Fails (abandoning the partial results) when the stream reports an IO
  /// error — a failing stream ends passes early and silently, and peeling
  /// on truncated statistics would yield plausible-looking wrong answers.
  /// MultiRunOptions::cancel is polled once per chunk round of the shared
  /// scan; on cancellation Drive abandons the sweep the same way and
  /// returns kCancelled / kDeadlineExceeded.
  Status Drive(EdgeStream& stream, std::span<FusedRun* const> runs);

  /// Deprecated spelling: pass the token through MultiRunOptions::cancel
  /// (or, for the sweep entry points, through the per-run option structs).
  /// Kept as a thin forwarding shim so existing callers compile; a
  /// non-null `cancel` here overrides the options token for this call.
  Status Drive(EdgeStream& stream, std::span<FusedRun* const> runs,
               const CancelToken* cancel);

  /// Fused Algorithm 3: one directed peeling run per entry of `runs`, all
  /// fed from shared scans of `stream`. Results are positionally matched
  /// to `runs` and identical to sequential RunAlgorithm3 calls (see the
  /// determinism note above — including its weighted-CSR caveat; RunCSearch
  /// wraps this with a fallback that makes its guarantee unconditional).
  /// Per-run `engine` fields are ignored. The shared scan polls the first
  /// non-null per-run `cancel` token (the sweep entry points assume one
  /// token governs the whole sweep — the scan is physically shared, so one
  /// run cannot be cancelled without stopping the others).
  StatusOr<std::vector<DirectedDensestResult>> RunDirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm3Options>& runs);

  /// Fused Algorithm 1 (the epsilon-sweep workhorse; the weighted-CSR
  /// caveat above applies — RunAlgorithm1EpsilonSweep adds the fallback).
  /// §6.3 compaction is honored per run: once a run buffers its survivors
  /// it leaves the fan-out and finishes over its private buffer, costing no
  /// further physical scans — exactly as it would alone.
  StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm1Options>& runs);

  /// Fused Algorithm 2 (the weighted-CSR caveat above applies).
  StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm2Options>& runs);

  /// Batch recompute entry point for the dynamic maintenance service
  /// (dynamic/dynamic_densest.h): one Algorithm 1 run over a frozen
  /// snapshot of the service's live edge set, driven through this engine so
  /// the service's slow path shares scratch, thread fan-out and scan
  /// accounting with every other batch sweep instead of being a separate
  /// world.
  StatusOr<UndirectedDensestResult> RecomputeUndirected(
      EdgeStream& stream, const Algorithm1Options& options);

  /// Physical scans of the stream the last Drive() performed.
  uint64_t last_physical_passes() const { return last_physical_passes_; }
  /// Sum over runs of the stream passes they consumed — what the same
  /// sweep costs in scans when executed run by run. The fused saving is
  /// last_logical_passes() / last_physical_passes(). Recorded by the
  /// sweep entry points layered on Drive() (Run*Runs here, RunSketchedSweep
  /// in sketch/sketch_runs.h) via RecordLogicalPasses.
  uint64_t last_logical_passes() const { return last_logical_passes_; }
  /// Edges delivered by the stream across the last Drive()'s scans.
  uint64_t last_edges_scanned() const { return last_edges_scanned_; }

  /// For sweep drivers layered on Drive(): records the run-by-run scan
  /// cost of the sweep that just executed (Drive resets it to 0).
  void RecordLogicalPasses(uint64_t passes) { last_logical_passes_ = passes; }

 private:
  void Dispatch(size_t count, const std::function<void(size_t)>& fn);
  /// Whether a K-way sweep over `stream` may use the single direct
  /// accumulation plane per degree array: unit weights (any order is the
  /// same bits) and no prospect of work-major shard-splitting, which needs
  /// slot-isolated planes. Work-major engages from the first round when
  /// forced, or under kAuto when the sweep starts with fewer runs than
  /// threads; a wide kAuto sweep keeps the frugal direct planes — if it
  /// later narrows below the thread count, its direct runs simply stay
  /// whole-round tasks (parallel_shards() false), trading late-sweep
  /// speedup for 8x less accumulator memory.
  bool UseDirectPlanes(const EdgeStream& stream, size_t num_runs) const {
    if (!stream.HasUnitWeights()) return false;
    if (!may_split_shards()) return true;
    return fan_out_ != MultiRunFanOut::kWorkMajor && num_runs >= num_threads_;
  }
  /// Whether this round should split shards within runs.
  bool UseWorkMajor(size_t active_runs) const {
    if (!may_split_shards()) return false;
    return fan_out_ == MultiRunFanOut::kWorkMajor ||
           active_runs < num_threads_;
  }

  size_t num_threads_ = 1;
  MultiRunFanOut fan_out_ = MultiRunFanOut::kAuto;
  const CancelToken* default_cancel_ = nullptr;  // MultiRunOptions::cancel
  // Concurrency contract (no mutex by design, same as PassEngine): every
  // task of a round writes one (run, slot) accumulator plane no other task
  // of that round touches, and the round's ParallelFor completion barrier
  // is the only publication point — caller writes happen-before the
  // tasks, task writes happen-before the slot-order reduction that reads
  // them. No engine state may be touched while a round is in flight.
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1
  std::vector<Edge> batch_;           // kShardSlots * kShardEdges capacity
  /// (run, shard) task list scratch for work-major rounds.
  std::vector<std::pair<uint32_t, uint32_t>> task_scratch_;
  /// Sequential engine for the in-memory passes of compacted Algorithm 1
  /// runs (deterministic for any thread count, so 1 thread loses nothing).
  std::unique_ptr<PassEngine> buffer_engine_;

  uint64_t last_physical_passes_ = 0;
  uint64_t last_logical_passes_ = 0;
  uint64_t last_edges_scanned_ = 0;
};

/// Convenience for the Figure 6.1-style sweeps: runs Algorithm 1 once per
/// epsilon, all fused over shared scans of `stream`. `base` supplies every
/// other option. Results are positionally matched to `epsilons`. Uses a
/// private MultiRunEngine when `engine` is null.
StatusOr<std::vector<UndirectedDensestResult>> RunAlgorithm1EpsilonSweep(
    EdgeStream& stream, const Algorithm1Options& base,
    const std::vector<double>& epsilons, MultiRunEngine* engine = nullptr);

}  // namespace densest

#endif  // DENSEST_CORE_MULTI_RUN_H_

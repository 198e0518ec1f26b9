// Copyright 2026 The densest Authors.
// Fused multi-run sweeps: peel every configuration in one scan of the
// stream.
//
// The directed c-search tries O(log_delta n) values of c, and the
// epsilon-sweep benches try a dozen epsilons — and every one of those runs
// re-scans the same edges. Bahmani et al. observe the candidate c values
// "can be tried in parallel" over the same passes; MultiRunEngine is that
// observation as a set of sweep entry points. Each builds one run per
// configuration (core/peel_runs.h) and hands them all to its PassEngine's
// Drive, which feeds every run from ONE physical scan per pass round: total
// physical scans = max over runs of their pass count, instead of the sum.
// Every per-run result is bit-identical to the solo RunAlgorithm{1,2,3}
// call with the same options, on every stream and at any thread count —
// they are the same run class taking the same kernels (core/pass_engine.h).
//
// Memory: O(K n) for K runs — the semi-streaming budget times the fused
// width (kShardSlots planes per degree array where a run is slotted).

#ifndef DENSEST_CORE_MULTI_RUN_H_
#define DENSEST_CORE_MULTI_RUN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/density.h"
#include "core/pass_engine.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief Knobs for a MultiRunEngine.
struct MultiRunOptions {
  /// Worker threads of the engine's PassEngine. 0 = hardware concurrency;
  /// 1 = fully sequential. Any value yields bit-identical results; it only
  /// changes wall-clock time.
  size_t num_threads = 0;
};

/// \brief Runs K peeling configurations over shared physical scans.
///
/// Owns a PassEngine (threads and scratch), so one engine should be reused
/// across sweeps. Not safe for concurrent use from multiple threads; create
/// one engine per concurrent sweep.
class MultiRunEngine {
 public:
  explicit MultiRunEngine(const MultiRunOptions& options = {});

  MultiRunEngine(const MultiRunEngine&) = delete;
  MultiRunEngine& operator=(const MultiRunEngine&) = delete;

  /// Resolved worker count (1 means sequential).
  size_t num_threads() const { return engine_.num_threads(); }

  /// Drives `runs` (one per configuration, any FusedRun type with a
  /// TakeResult()) to completion over shared scans of `stream`, polling
  /// `cancel`, and takes their results positionally. Every sweep entry
  /// point ends here, RunSketchedSweep (sketch/sketch_runs.h) included.
  template <typename RunT>
  auto Sweep(EdgeStream& stream, std::vector<std::unique_ptr<RunT>>& runs,
             const CancelToken* cancel)
      -> StatusOr<std::vector<decltype(runs[0]->TakeResult())>> {
    std::vector<FusedRun*> fused;
    fused.reserve(runs.size());
    for (std::unique_ptr<RunT>& run : runs) fused.push_back(run.get());
    if (Status s = engine_.Drive(stream, fused, cancel); !s.ok()) return s;
    std::vector<decltype(runs[0]->TakeResult())> results;
    results.reserve(runs.size());
    for (std::unique_ptr<RunT>& run : runs) {
      results.push_back(run->TakeResult());
    }
    return results;
  }

  /// Fused Algorithm 3: one directed peeling run per entry of `runs`, all
  /// fed from shared scans of `stream`. Results are positionally matched
  /// to `runs` and identical to sequential RunAlgorithm3 calls. Per-run
  /// `engine` fields are ignored. The shared scan polls the first non-null
  /// per-run `cancel` token (the scan is physically shared, so one run
  /// cannot be cancelled without stopping the others).
  StatusOr<std::vector<DirectedDensestResult>> RunDirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm3Options>& runs);

  /// Fused Algorithm 1 (the epsilon-sweep workhorse). §6.3 compaction is
  /// honored per run: once a run buffers its survivors it leaves the
  /// shared scan and takes its further passes over its private buffer,
  /// costing no further physical scans — exactly as it would alone.
  StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm1Options>& runs);

  /// Fused Algorithm 2.
  StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm2Options>& runs);

  /// Batch recompute entry point for the dynamic maintenance service
  /// (dynamic/dynamic_densest.h): one Algorithm 1 run over a frozen
  /// snapshot of the service's live edge set, driven through this engine so
  /// the service's slow path shares scratch, threads and scan accounting
  /// with every other batch sweep.
  StatusOr<UndirectedDensestResult> RecomputeUndirected(
      EdgeStream& stream, const Algorithm1Options& options);

  /// Physical scans of the stream the last sweep performed.
  uint64_t last_physical_passes() const {
    return engine_.last_physical_passes();
  }
  /// Sum over runs of the stream passes they consumed — what the same
  /// sweep costs in scans when executed run by run. The fused saving is
  /// last_logical_passes() / last_physical_passes().
  uint64_t last_logical_passes() const {
    return engine_.last_logical_passes();
  }
  /// Edges read across the last sweep's scans.
  uint64_t last_edges_scanned() const { return engine_.last_edges_scanned(); }

 private:
  /// Validates `options`, builds one RunT per entry and sweeps them.
  template <typename RunT, typename OptionsT>
  auto SweepOptions(EdgeStream& stream, const std::vector<OptionsT>& options);

  PassEngine engine_;
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

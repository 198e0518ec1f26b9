// Copyright 2026 The densest Authors.
// Fused multi-run sweeps: peel every configuration in one scan of the
// stream.
//
// The directed c-search tries O(log_delta n) values of c, and the
// epsilon-sweep benches try a dozen epsilons — and every one of those runs
// re-scans the same edges. Bahmani et al. observe the candidate c values
// "can be tried in parallel" over the same passes; the sweep functions
// below are that observation over a PassEngine. Each builds one run per
// configuration (core/peel_runs.h) and hands them all to the engine's
// Drive, which feeds every run from ONE physical scan per pass round: total
// physical scans = max over runs of their pass count, instead of the sum.
// Every per-run result is bit-identical to the solo RunAlgorithm{1,2,3}
// call with the same options, on every stream and at any thread count —
// they are the same run class taking the same kernels (core/pass_engine.h).
// After a sweep, the engine's last_physical_passes() / last_logical_passes()
// report the fused saving.
//
// Memory: O(K n) for K runs — the semi-streaming budget times the fused
// width (kShardSlots planes per degree array where a run is slotted).

#ifndef DENSEST_CORE_MULTI_RUN_H_
#define DENSEST_CORE_MULTI_RUN_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/density.h"
#include "core/pass_engine.h"
#include "stream/edge_stream.h"

namespace densest {

// These two aliases exist only for the benchmark harness (perfbench/),
// which spells these names; code in src/, tests/, bench/, tools/ and
// examples/ uses PassEngine and PassEngineOptions.
using MultiRunEngine = PassEngine;
using MultiRunOptions = PassEngineOptions;

/// Builds one run per entry of `configs` with `make(config)` — a
/// StatusOr<std::unique_ptr<RunT>> that validates the entry — stopping at
/// the first error, then drives them all to completion over shared scans
/// of `stream` on `engine` and takes their results positionally. Every
/// sweep ends here, RunSketchedSweep (sketch/sketch_runs.h) included. The
/// physical scan is shared, so one run cannot be cancelled without
/// stopping the others: the first non-null `cancel_of(config)` governs the
/// whole sweep.
template <typename RunT, typename ConfigT, typename CancelOf, typename Make>
auto Sweep(PassEngine& engine, EdgeStream& stream,
           const std::vector<ConfigT>& configs, CancelOf cancel_of, Make make)
    -> StatusOr<std::vector<decltype(std::declval<RunT&>().TakeResult())>> {
  std::vector<std::unique_ptr<RunT>> runs;
  std::vector<FusedRun*> fused;
  runs.reserve(configs.size());
  fused.reserve(configs.size());
  const CancelToken* cancel = nullptr;
  for (const ConfigT& config : configs) {
    StatusOr<std::unique_ptr<RunT>> run = make(config);
    if (!run.ok()) return run.status();
    fused.push_back(run->get());
    runs.push_back(std::move(*run));
    if (cancel == nullptr) cancel = cancel_of(config);
  }
  if (Status s = engine.Drive(stream, fused, cancel); !s.ok()) return s;
  std::vector<decltype(std::declval<RunT&>().TakeResult())> results;
  results.reserve(runs.size());
  for (std::unique_ptr<RunT>& run : runs) results.push_back(run->TakeResult());
  return results;
}

/// Fused Algorithm 3: one directed peeling run per entry of `runs`, all
/// fed from shared scans of `stream`. Results are positionally matched
/// to `runs` and identical to sequential RunAlgorithm3 calls. Per-run
/// `engine` fields are ignored; the first non-null per-run `cancel` token
/// governs the shared scan (see Sweep).
StatusOr<std::vector<DirectedDensestResult>> RunDirectedRuns(
    PassEngine& engine, EdgeStream& stream,
    const std::vector<Algorithm3Options>& runs);

/// Fused Algorithm 1 (the epsilon-sweep workhorse). §6.3 compaction is
/// honored per run: once a run buffers its survivors it leaves the
/// shared scan and takes its further passes over its private buffer,
/// costing no further physical scans — exactly as it would alone.
StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
    PassEngine& engine, EdgeStream& stream,
    const std::vector<Algorithm1Options>& runs);

/// Fused Algorithm 2.
StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
    PassEngine& engine, EdgeStream& stream,
    const std::vector<Algorithm2Options>& runs);

/// Convenience for the Figure 6.1-style sweeps: runs Algorithm 1 once per
/// epsilon, all fused over shared scans of `stream`. `base` supplies every
/// other option. Results are positionally matched to `epsilons`. Runs on
/// DefaultPassEngine() when `engine` is null.
StatusOr<std::vector<UndirectedDensestResult>> RunAlgorithm1EpsilonSweep(
    EdgeStream& stream, const Algorithm1Options& base,
    const std::vector<double>& epsilons, PassEngine* engine = nullptr);

}  // namespace densest

#endif  // DENSEST_CORE_MULTI_RUN_H_

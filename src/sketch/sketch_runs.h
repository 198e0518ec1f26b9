// Copyright 2026 The densest Authors.
// The run of the §5.1 sketched Algorithm 1, plus the fused Table 4 sweep
// that drives a whole grid of sketch configurations from shared physical
// scans.
//
// SketchedAlgorithm1Run is to RunAlgorithm1WithOracle what core/peel_runs.h
// is to RunAlgorithm{1,2,3}: ONE oracle-backed run — alive set, best-so-far
// subgraph, the DegreeOracle itself as private per-run state — as a
// FusedRun that PassEngine::Drive takes pass by pass. The solo driver and
// the fused RunSketchedSweep below drive the same class.
//
// A Count-Sketch is an order-dependent FP accumulator (counter[bucket] +=
// sign * w in stream order), so the run walks each round's shards in order
// (VisitSurvivors: stream order on both shard fills) and reports
// parallel_shards() false, so work-major rounds never split it. Its exact
// scalar aggregates (pass weight, edge count) are summed the same way.

#ifndef DENSEST_SKETCH_SKETCH_RUNS_H_
#define DENSEST_SKETCH_SKETCH_RUNS_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/algorithm1.h"
#include "core/multi_run.h"
#include "core/pass_engine.h"
#include "core/peel_runs.h"
#include "sketch/degree_oracle.h"
#include "sketch/sketched_algorithm1.h"

namespace densest {

/// \brief One run of the oracle-backed Algorithm 1: every pass feeds each
/// surviving edge's endpoints to the oracle in stream order while summing
/// the exact pass aggregates, then peels on the oracle's estimates. Its
/// options are checked like Algorithm 1's (Algorithm1Run::Validate).
class SketchedAlgorithm1Run final : public FusedRun {
 public:
  /// Owning constructor (the fused sweep: each run carries its oracle).
  SketchedAlgorithm1Run(NodeId n, std::unique_ptr<DegreeOracle> oracle,
                        const Algorithm1Options& options);
  /// Non-owning constructor (RunAlgorithm1WithOracle's caller-supplied
  /// oracle). `oracle` must outlive the run.
  SketchedAlgorithm1Run(NodeId n, DegreeOracle& oracle,
                        const Algorithm1Options& options);

  bool done() const override { return peel_.done(); }
  void BeginPass() override;
  void AccumulateShard(const Shard& shard, size_t slot) override;
  bool parallel_shards() const override { return false; }
  /// Peels nodes whose oracle degree estimate is below the threshold
  /// (forcing geometric progress under heavy sketch noise) through the
  /// Algorithm 1 peel step.
  void FinishPass() override;

  /// Finalizes the result (call once, after done()).
  SketchedResult TakeResult();

 private:
  NodeId n_;
  double epsilon_;
  std::unique_ptr<DegreeOracle> owned_oracle_;
  DegreeOracle* oracle_;
  UndirectedPeel peel_;
  double weight_ = 0.0;  // exact pass aggregates
  EdgeId edges_ = 0;
};

/// \brief One configuration of the fused Table 4 sweep.
struct SketchedSweepRun {
  /// The peeling knobs (epsilon, max_passes, record_trace; compaction is
  /// ignored — oracle-backed runs always scan the stream).
  Algorithm1Options options;
  /// True runs the exact-counting baseline (ExactDegreeOracle, the
  /// denominator of Table 4's ratios) instead of a sketch.
  bool exact = false;
  /// Sketch dimensions and seed (used when !exact).
  CountSketchOptions sketch;
  uint64_t sketch_seed = 0;
};

/// Runs every configuration of `runs` fused over shared physical scans of
/// `stream`: one oracle-backed peeling run per entry, each carrying its
/// private DegreeOracle, all fed from ONE scan per pass round, so a whole
/// Table 4 grid costs max-over-runs(passes) scans instead of the sum.
/// Results are positionally matched to `runs` and bit-identical to
/// sequential RunAlgorithm1WithOracle calls with equal oracles, for any
/// engine thread count and stream. A sweep function over a PassEngine
/// (core/multi_run.h): runs on DefaultPassEngine() when `engine` is null,
/// and the first non-null per-run cancel token governs the shared scan; on
/// success the engine's last_physical_passes() / last_logical_passes()
/// report the fused saving.
StatusOr<std::vector<SketchedResult>> RunSketchedSweep(
    EdgeStream& stream, const std::vector<SketchedSweepRun>& runs,
    PassEngine* engine = nullptr);

}  // namespace densest

#endif  // DENSEST_SKETCH_SKETCH_RUNS_H_

#include "sketch/sketch_runs.h"

#include <algorithm>
#include <utility>

#include "core/alive_kernel.h"
#include "core/peel_runs.h"

namespace densest {

SketchedAlgorithm1Run::SketchedAlgorithm1Run(
    NodeId n, std::unique_ptr<DegreeOracle> oracle,
    const Algorithm1Options& options)
    : SketchedAlgorithm1Run(n, *oracle, options) {
  owned_oracle_ = std::move(oracle);
}

SketchedAlgorithm1Run::SketchedAlgorithm1Run(NodeId n, DegreeOracle& oracle,
                                             const Algorithm1Options& options)
    : n_(n),
      epsilon_(options.epsilon),
      oracle_(&oracle),
      peel_(n, options.epsilon, options.max_passes, options.record_trace) {}

void SketchedAlgorithm1Run::BeginPass() {
  oracle_->BeginPass();
  weight_ = 0.0;
  edges_ = 0;
}

void SketchedAlgorithm1Run::AccumulateShard(const Shard& shard, size_t) {
  VisitSurvivors(shard, peel_.alive(), [&](const Edge& e) {
    oracle_->AddIncidence(e.u, e.w);
    oracle_->AddIncidence(e.v, e.w);
    weight_ += e.w;
    ++edges_;
  });
}

void SketchedAlgorithm1Run::FinishPass() {
  const double threshold = peel_.Open(weight_, edges_);
  const NodeSet& alive = peel_.alive();
  std::vector<std::pair<double, NodeId>> estimates;
  estimates.reserve(alive.size());
  const NodeId alive_before = alive.size();
  for (NodeId u = 0; u < n_; ++u) {
    if (!alive.Contains(u)) continue;
    double est = oracle_->EstimateDegree(u);
    if (est <= threshold) {
      peel_.Remove(u);
    } else {
      estimates.emplace_back(est, u);
    }
  }
  // A noisy sketch can over-estimate every candidate and remove nobody,
  // which would degrade to one pass per node. Force geometric progress
  // the way Algorithm 2 does: drop the lowest-estimate nodes, at least a
  // 1/16 fraction (or eps/(1+eps) if that is larger), so the pass count
  // stays O(log |S|) even under heavy sketch noise.
  if (estimates.size() == alive_before && !estimates.empty()) {
    double fraction = std::max(epsilon_ / (1.0 + epsilon_), 1.0 / 16.0);
    size_t quota = static_cast<size_t>(
        fraction * static_cast<double>(estimates.size()));
    quota = std::min(std::max<size_t>(quota, 1), estimates.size());
    std::nth_element(estimates.begin(), estimates.begin() + (quota - 1),
                     estimates.end());
    for (size_t i = 0; i < quota; ++i) peel_.Remove(estimates[i].second);
  }
  peel_.Close();
}

SketchedResult SketchedAlgorithm1Run::TakeResult() {
  SketchedResult result;
  result.result = peel_.Finish();
  // No band: the oracle's degree estimates carry relative error, which
  // voids Lemma 1's deterministic proof — the sketched answer is served
  // uncertified (Answer::certified == false).
  result.result.certified_band = 0;
  result.result.io_passes = result.result.passes;  // oracle runs always scan
  result.oracle_state_words = oracle_->StateWords();
  result.memory_ratio = static_cast<double>(result.oracle_state_words) /
                        static_cast<double>(n_);
  return result;
}

StatusOr<std::vector<SketchedResult>> RunSketchedSweep(
    EdgeStream& stream, const std::vector<SketchedSweepRun>& runs,
    PassEngine* engine) {
  const NodeId n = stream.num_nodes();
  return Sweep<SketchedAlgorithm1Run>(
      engine != nullptr ? *engine : DefaultPassEngine(), stream, runs,
      [](const SketchedSweepRun& run) { return run.options.cancel; },
      [n](const SketchedSweepRun& run)
          -> StatusOr<std::unique_ptr<SketchedAlgorithm1Run>> {
        if (Status s = Algorithm1Run::Validate(n, run.options); !s.ok()) {
          return s;
        }
        std::unique_ptr<DegreeOracle> oracle;
        if (run.exact) {
          oracle = std::make_unique<ExactDegreeOracle>(n);
        } else {
          StatusOr<CountSketch> sketch =
              CountSketch::Create(run.sketch, run.sketch_seed);
          if (!sketch.ok()) return sketch.status();
          oracle = std::make_unique<SketchDegreeOracle>(std::move(*sketch));
        }
        return std::make_unique<SketchedAlgorithm1Run>(n, std::move(oracle),
                                                       run.options);
      });
}

}  // namespace densest

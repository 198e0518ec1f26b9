#include "sketch/sketch_runs.h"

#include <algorithm>
#include <utility>

#include "core/alive_kernel.h"
#include "core/peel_runs.h"

namespace densest {

SketchedAlgorithm1Run::SketchedAlgorithm1Run(
    NodeId n, std::unique_ptr<DegreeOracle> oracle,
    const Algorithm1Options& options)
    : options_(options),
      n_(n),
      owned_oracle_(std::move(oracle)),
      oracle_(owned_oracle_.get()),
      alive_(n, /*full=*/true),
      best_(alive_) {
  done_ = alive_.empty();
}

SketchedAlgorithm1Run::SketchedAlgorithm1Run(NodeId n, DegreeOracle& oracle,
                                             const Algorithm1Options& options)
    : options_(options),
      n_(n),
      oracle_(&oracle),
      alive_(n, /*full=*/true),
      best_(alive_) {
  done_ = alive_.empty();
}

void SketchedAlgorithm1Run::BeginPass() {
  oracle_->BeginPass();
  weight_ = 0.0;
  edges_ = 0;
}

void SketchedAlgorithm1Run::AccumulateShard(const Shard& shard, size_t) {
  VisitSurvivors(shard, alive_, [&](const Edge& e) {
    oracle_->AddIncidence(e.u, e.w);
    oracle_->AddIncidence(e.v, e.w);
    weight_ += e.w;
    ++edges_;
  });
}

void SketchedAlgorithm1Run::FinishPass() {
  ++pass_;
  const double rho = weight_ / static_cast<double>(alive_.size());
  if (rho > best_density_) {
    best_density_ = rho;
    best_ = alive_;
  }

  const double factor = 2.0 * (1.0 + options_.epsilon);
  const double threshold = factor * rho;
  std::vector<std::pair<double, NodeId>> estimates;
  estimates.reserve(alive_.size());
  NodeId removed = 0;
  for (NodeId u = 0; u < n_; ++u) {
    if (!alive_.Contains(u)) continue;
    double est = oracle_->EstimateDegree(u);
    if (est <= threshold) {
      alive_.Remove(u);
      ++removed;
    } else {
      estimates.emplace_back(est, u);
    }
  }
  // A noisy sketch can over-estimate every candidate and remove nobody,
  // which would degrade to one pass per node. Force geometric progress
  // the way Algorithm 2 does: drop the lowest-estimate nodes, at least a
  // 1/16 fraction (or eps/(1+eps) if that is larger), so the pass count
  // stays O(log |S|) even under heavy sketch noise.
  if (removed == 0 && !estimates.empty()) {
    double fraction =
        std::max(options_.epsilon / (1.0 + options_.epsilon), 1.0 / 16.0);
    size_t quota = static_cast<size_t>(
        fraction * static_cast<double>(estimates.size()));
    quota = std::min(std::max<size_t>(quota, 1), estimates.size());
    std::nth_element(estimates.begin(), estimates.begin() + (quota - 1),
                     estimates.end());
    for (size_t i = 0; i < quota; ++i) {
      alive_.Remove(estimates[i].second);
      ++removed;
    }
  }

  if (options_.record_trace) {
    PassSnapshot snap;
    snap.pass = pass_;
    snap.nodes = static_cast<NodeId>(alive_.size() + removed);
    snap.edges = edges_;
    snap.weight = weight_;
    snap.density = rho;
    snap.threshold = threshold;
    snap.removed = removed;
    result_.result.trace.push_back(snap);
  }

  done_ = alive_.empty() ||
          (options_.max_passes != 0 && pass_ >= options_.max_passes);
}

SketchedResult SketchedAlgorithm1Run::TakeResult() {
  result_.result.nodes = best_.ToVector();
  result_.result.density = best_density_ < 0 ? 0.0 : best_density_;
  result_.result.passes = pass_;
  result_.result.io_passes = pass_;  // oracle runs always scan the stream
  // certified_band stays 0: the oracle's degree estimates carry relative
  // error, which voids Lemma 1's deterministic proof — the sketched answer
  // is served uncertified (Answer::certified == false).
  result_.oracle_state_words = oracle_->StateWords();
  result_.memory_ratio = static_cast<double>(result_.oracle_state_words) /
                         static_cast<double>(n_);
  return std::move(result_);
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

#include "sketch/sketched_algorithm1.h"

#include <utility>

#include "core/pass_engine.h"
#include "core/peel_runs.h"
#include "sketch/sketch_runs.h"

namespace densest {

StatusOr<SketchedResult> RunAlgorithm1WithOracle(
    EdgeStream& stream, DegreeOracle& oracle,
    const Algorithm1Options& options) {
  const NodeId n = stream.num_nodes();
  if (Status s = Algorithm1Run::Validate(n, options); !s.ok()) return s;
  PassEngine& engine =
      options.engine != nullptr ? *options.engine : DefaultPassEngine();
  SketchedAlgorithm1Run run(n, oracle, options);
  FusedRun* runs[] = {&run};
  if (Status s = engine.Drive(stream, runs, options.cancel); !s.ok()) return s;
  return run.TakeResult();
}

StatusOr<SketchedResult> RunSketchedAlgorithm1(
    EdgeStream& stream, const CountSketchOptions& sketch_options,
    uint64_t sketch_seed, const Algorithm1Options& options) {
  StatusOr<CountSketch> sketch =
      CountSketch::Create(sketch_options, sketch_seed);
  if (!sketch.ok()) return sketch.status();
  SketchDegreeOracle oracle(std::move(*sketch));
  return RunAlgorithm1WithOracle(stream, oracle, options);
}

}  // namespace densest

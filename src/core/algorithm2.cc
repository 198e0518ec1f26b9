#include "core/algorithm2.h"

#include "core/pass_engine.h"
#include "core/peel_runs.h"
#include "stream/memory_stream.h"

namespace densest {

StatusOr<UndirectedDensestResult> RunAlgorithm2(
    EdgeStream& stream, const Algorithm2Options& options) {
  const NodeId n = stream.num_nodes();
  if (Status s = Algorithm2Run::Validate(n, options); !s.ok()) return s;
  PassEngine& engine =
      options.engine != nullptr ? *options.engine : DefaultPassEngine();
  Algorithm2Run run(n, options, engine.DirectPlanes(stream, 1));
  FusedRun* runs[] = {&run};
  if (Status s = engine.Drive(stream, runs, options.cancel); !s.ok()) return s;
  return run.TakeResult();
}

StatusOr<UndirectedDensestResult> RunAlgorithm2(
    const UndirectedGraph& g, const Algorithm2Options& options) {
  UndirectedGraphStream stream(g);
  return RunAlgorithm2(stream, options);
}

}  // namespace densest

#include "core/algorithm3.h"

#include <cmath>
#include <vector>

#include "core/multi_run.h"
#include "core/pass_engine.h"
#include "core/peel_runs.h"
#include "stream/memory_stream.h"

namespace densest {

StatusOr<DirectedDensestResult> RunAlgorithm3(
    EdgeStream& stream, const Algorithm3Options& options) {
  const NodeId n = stream.num_nodes();
  if (Status s = Algorithm3Run::Validate(n, options); !s.ok()) return s;
  PassEngine& engine =
      options.engine != nullptr ? *options.engine : DefaultPassEngine();
  Algorithm3Run run(n, options, engine.DirectPlanes(stream, 1));
  FusedRun* runs[] = {&run};
  if (Status s = engine.Drive(stream, runs, options.cancel); !s.ok()) return s;
  return run.TakeResult();
}

StatusOr<DirectedDensestResult> RunAlgorithm3(
    const DirectedGraph& g, const Algorithm3Options& options) {
  DirectedGraphStream stream(g);
  return RunAlgorithm3(stream, options);
}

std::vector<Algorithm3Options> CSearchGrid(NodeId n,
                                           const CSearchOptions& options) {
  // delta <= 1 spans no finite grid (RunCSearch rejects it with a status);
  // guard here too since this helper is public.
  if (!(options.delta > 1.0) || n == 0) return {};
  // c only matters over [1/n, n]: |S|, |T| are integers in [1, n].
  const int j_max = static_cast<int>(
      std::ceil(std::log(static_cast<double>(n)) / std::log(options.delta)));
  std::vector<Algorithm3Options> grid;
  grid.reserve(2 * j_max + 1);
  for (int j = -j_max; j <= j_max; ++j) {
    Algorithm3Options run;
    run.c = std::pow(options.delta, j);
    run.epsilon = options.epsilon;
    run.rule = options.rule;
    run.max_passes = options.max_passes;
    run.record_trace = options.record_trace;
    run.cancel = options.cancel;
    grid.push_back(run);
  }
  return grid;
}

StatusOr<CSearchResult> RunCSearch(EdgeStream& stream,
                                   const CSearchOptions& options) {
  if (options.delta <= 1.0) {
    return Status::InvalidArgument("delta must be > 1");
  }
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");

  const std::vector<Algorithm3Options> grid = CSearchGrid(n, options);

  // All c values share every physical scan: one fused sweep feeds the
  // whole grid, so the stream is scanned max-passes times instead of
  // sum-of-passes times (the paper's "can be tried in parallel" remark).
  PassEngine& engine = options.multi_engine != nullptr ? *options.multi_engine
                                                       : DefaultPassEngine();
  StatusOr<std::vector<DirectedDensestResult>> runs =
      RunDirectedRuns(engine, stream, grid);
  if (!runs.ok()) return runs.status();
  CSearchResult out;
  out.sweep = std::move(*runs);
  out.physical_scans = engine.last_physical_passes();

  double best_density = -1.0;
  for (const DirectedDensestResult& run : out.sweep) {
    if (run.density > best_density) {
      best_density = run.density;
      out.best = run;
    }
  }
  return out;
}

StatusOr<CSearchResult> RunCSearch(const DirectedGraph& g,
                                   const CSearchOptions& options) {
  DirectedGraphStream stream(g);
  return RunCSearch(stream, options);
}

}  // namespace densest

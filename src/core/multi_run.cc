#include "core/multi_run.h"

#include "core/peel_runs.h"

namespace densest {

namespace {

/// Validates `options`, builds one RunT per entry and sweeps them.
template <typename RunT, typename OptionsT>
auto SweepOptions(PassEngine& engine, EdgeStream& stream,
                  const std::vector<OptionsT>& options) {
  const NodeId n = stream.num_nodes();
  const bool direct = engine.DirectPlanes(stream, options.size());
  return Sweep<RunT>(
      engine, stream, options, [](const OptionsT& o) { return o.cancel; },
      [&](const OptionsT& o) -> StatusOr<std::unique_ptr<RunT>> {
        if (Status s = RunT::Validate(n, o); !s.ok()) return s;
        return std::make_unique<RunT>(n, o, direct);
      });
}

}  // namespace

StatusOr<std::vector<DirectedDensestResult>> RunDirectedRuns(
    PassEngine& engine, EdgeStream& stream,
    const std::vector<Algorithm3Options>& runs) {
  return SweepOptions<Algorithm3Run>(engine, stream, runs);
}

StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
    PassEngine& engine, EdgeStream& stream,
    const std::vector<Algorithm1Options>& runs) {
  return SweepOptions<Algorithm1Run>(engine, stream, runs);
}

StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
    PassEngine& engine, EdgeStream& stream,
    const std::vector<Algorithm2Options>& runs) {
  return SweepOptions<Algorithm2Run>(engine, stream, runs);
}

StatusOr<std::vector<UndirectedDensestResult>> RunAlgorithm1EpsilonSweep(
    EdgeStream& stream, const Algorithm1Options& base,
    const std::vector<double>& epsilons, PassEngine* engine) {
  std::vector<Algorithm1Options> runs;
  runs.reserve(epsilons.size());
  for (double eps : epsilons) {
    Algorithm1Options options = base;
    options.epsilon = eps;
    runs.push_back(options);
  }
  return RunUndirectedRuns(
      engine != nullptr ? *engine : DefaultPassEngine(), stream, runs);
}

}  // namespace densest

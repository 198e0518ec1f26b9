#include "core/multi_run.h"

#include <utility>

#include "core/peel_runs.h"

namespace densest {

namespace {

/// The token governing a fused sweep: the first non-null per-run token.
/// The physical scan is shared, so one run cannot be cancelled without
/// stopping the whole sweep; sweep builders set one token on every run.
template <typename OptionsT>
const CancelToken* SweepCancel(const std::vector<OptionsT>& runs) {
  for (const OptionsT& options : runs) {
    if (options.cancel != nullptr) return options.cancel;
  }
  return nullptr;
}

}  // namespace

MultiRunEngine::MultiRunEngine(const MultiRunOptions& options)
    : engine_(PassEngineOptions{.num_threads = options.num_threads}) {}

template <typename RunT, typename OptionsT>
auto MultiRunEngine::SweepOptions(EdgeStream& stream,
                                  const std::vector<OptionsT>& options) {
  const NodeId n = stream.num_nodes();
  const bool direct = engine_.DirectPlanes(stream, options.size());
  std::vector<std::unique_ptr<RunT>> runs;
  runs.reserve(options.size());
  for (const OptionsT& o : options) {
    if (Status s = RunT::Validate(n, o); !s.ok()) {
      return decltype(Sweep(stream, runs, nullptr))(s);
    }
    runs.push_back(std::make_unique<RunT>(n, o, direct));
  }
  return Sweep(stream, runs, SweepCancel(options));
}

StatusOr<std::vector<DirectedDensestResult>> MultiRunEngine::RunDirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm3Options>& runs) {
  return SweepOptions<Algorithm3Run>(stream, runs);
}

StatusOr<std::vector<UndirectedDensestResult>> MultiRunEngine::RunUndirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm1Options>& runs) {
  return SweepOptions<Algorithm1Run>(stream, runs);
}

StatusOr<std::vector<UndirectedDensestResult>> MultiRunEngine::RunUndirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm2Options>& runs) {
  return SweepOptions<Algorithm2Run>(stream, runs);
}

StatusOr<UndirectedDensestResult> MultiRunEngine::RecomputeUndirected(
    EdgeStream& stream, const Algorithm1Options& options) {
  StatusOr<std::vector<UndirectedDensestResult>> results =
      RunUndirectedRuns(stream, std::vector<Algorithm1Options>{options});
  if (!results.ok()) return results.status();
  return std::move((*results)[0]);
}

StatusOr<std::vector<UndirectedDensestResult>> RunAlgorithm1EpsilonSweep(
    EdgeStream& stream, const Algorithm1Options& base,
    const std::vector<double>& epsilons, MultiRunEngine* engine) {
  std::vector<Algorithm1Options> runs;
  runs.reserve(epsilons.size());
  for (double eps : epsilons) {
    Algorithm1Options options = base;
    options.epsilon = eps;
    runs.push_back(options);
  }
  if (engine != nullptr) return engine->RunUndirectedRuns(stream, runs);
  MultiRunEngine local{MultiRunOptions{}};
  return local.RunUndirectedRuns(stream, runs);
}

}  // namespace densest

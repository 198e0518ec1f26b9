// Copyright 2026 The densest Authors.
// Algorithm 3 of the paper: streaming (2+2eps)-approximation for the
// densest subgraph in *directed* graphs, for a known size ratio
// c = |S*|/|T*|; plus the outer search over c in powers of delta (§6.4).

#ifndef DENSEST_CORE_ALGORITHM3_H_
#define DENSEST_CORE_ALGORITHM3_H_

#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/density.h"
#include "graph/directed_graph.h"
#include "stream/edge_stream.h"

namespace densest {

class PassEngine;

/// \brief Which set to peel when both are nonempty.
enum class DirectedRemovalRule {
  /// The paper's preferred rule: peel S when |S|/|T| >= c, else T.
  /// Needs only one degree array per pass.
  kSizeRatio,
  /// The naive alternative the paper describes first: compute both A(S)
  /// and B(T), compare the max outdegree E(i*,T) against the max indegree
  /// E(S,j*) scaled by c, and remove the side whose extreme is smaller.
  /// Costs both degree arrays every pass; kept for the ablation bench.
  kMaxDegree,
};

/// \brief Knobs for Algorithm 3 (single ratio c).
struct Algorithm3Options {
  /// Assumed ratio |S*|/|T*| (> 0).
  double c = 1.0;
  /// Paper epsilon: a pass removes from S every i with
  /// |E(i,T)| <= (1+eps) |E(S,T)|/|S| (resp. for T).
  double epsilon = 0.5;
  /// Removal-side policy (see DirectedRemovalRule).
  DirectedRemovalRule rule = DirectedRemovalRule::kSizeRatio;
  /// Safety cap on passes (0 = uncapped).
  uint64_t max_passes = 100000;
  /// Record a DirectedPassSnapshot per pass (Figure 6.5 needs this).
  bool record_trace = true;
  /// Pass engine to run on; nullptr = shared DefaultPassEngine() (not
  /// thread-safe — supply a private engine for concurrent runs).
  PassEngine* engine = nullptr;
  /// Optional cooperative cancellation (see Algorithm1Options::cancel).
  const CancelToken* cancel = nullptr;
};

/// Runs Algorithm 3 for one ratio c over an arc stream.
StatusOr<DirectedDensestResult> RunAlgorithm3(EdgeStream& stream,
                                              const Algorithm3Options& options);

/// Convenience wrapper over a CSR directed graph.
StatusOr<DirectedDensestResult> RunAlgorithm3(const DirectedGraph& g,
                                              const Algorithm3Options& options);

/// \brief Knobs for the outer c-search (§4.3 / §6.4): try c = delta^j for
/// all j with 1/n <= delta^j <= n, keep the best result. This worsens the
/// approximation by at most a factor delta.
struct CSearchOptions {
  /// Resolution of the c grid (> 1); the paper uses delta = 2.
  double delta = 2.0;
  double epsilon = 0.5;
  DirectedRemovalRule rule = DirectedRemovalRule::kSizeRatio;
  uint64_t max_passes = 100000;
  /// Record traces in the per-c results (memory heavy for big sweeps).
  bool record_trace = false;
  /// Engine the whole grid is fused on (core/multi_run.h): every pass of
  /// the stream feeds all still-active c values at once, so the stream is
  /// scanned max-over-c(passes) times instead of sum-over-c(passes) times.
  /// nullptr = DefaultPassEngine(). Supply one to pick the fan-out thread
  /// count or to run searches concurrently.
  PassEngine* multi_engine = nullptr;
  /// Optional cooperative cancellation for the whole sweep.
  const CancelToken* cancel = nullptr;
};

/// \brief Result of the c-search: the best run plus the whole sweep
/// (density and passes per c — the series of Figures 6.4 and 6.6).
struct [[nodiscard]] CSearchResult {
  DirectedDensestResult best;
  std::vector<DirectedDensestResult> sweep;
  /// Physical scans of the stream the whole search cost: the number of
  /// fused pass rounds, i.e. the longest run's passes.
  uint64_t physical_scans = 0;
};

/// The c-grid a CSearchOptions spans: one Algorithm3Options per c = delta^j,
/// j in [-ceil(log_delta n), +ceil(log_delta n)]. Exposed so callers can
/// run the same grid themselves, fused (RunDirectedRuns in
/// core/multi_run.h) or one RunAlgorithm3 per entry. Empty when
/// n == 0 or delta <= 1 (invalid; RunCSearch reports those as statuses).
std::vector<Algorithm3Options> CSearchGrid(NodeId n,
                                           const CSearchOptions& options);

/// Runs Algorithm 3 for every c in the delta-grid and returns the best.
StatusOr<CSearchResult> RunCSearch(EdgeStream& stream,
                                   const CSearchOptions& options);

/// Convenience wrapper over a CSR directed graph.
StatusOr<CSearchResult> RunCSearch(const DirectedGraph& g,
                                   const CSearchOptions& options);

}  // namespace densest

#endif  // DENSEST_CORE_ALGORITHM3_H_

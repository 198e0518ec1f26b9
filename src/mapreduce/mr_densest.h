// Copyright 2026 The densest Authors.
// Full MapReduce realizations of Algorithm 1 (undirected) and Algorithm 3
// (directed): the drivers orchestrate the §5.2 jobs pass by pass and
// collect each pass's job counters, simulated cluster time included
// (Figure 6.7), in pass_stats: the one per-pass store. Run totals are
// their sum (SumJobStats), taken where they are printed. The jobs compute
// a pass's degrees and remove the peeled nodes. §5.2's density step is
// derived in the driver: |E(S)| is half the degree sum (Algorithm 3:
// |E(S, T)| is the out-degree sum). Every decision — best subgraph,
// threshold, peel, trace, end of run, band — is made by the same peel step
// the streaming algorithms take (UndirectedPeel / DirectedPeel in
// core/peel_runs.h), and options are checked by the same
// Algorithm1Run::Validate / Algorithm3Run::Validate.
//
// The drivers read EdgeStreams: the first pass's degree and removal jobs
// each scan the input through a StreamRecordSource (binary file,
// generator, or in-memory stream — the same inputs the streaming engines
// run on, read through the same NextView; the source counts the scans),
// and the removal job's in-memory survivor set feeds every later pass
// (§6.3: the graph shrinks by orders of magnitude in the first passes).
// An endpoint id at or above the stream's num_nodes() fails the run with
// InvalidArgument. Shuffle memory inside each job follows the spill
// budget, not |E|: the budget, plus up to one map round's output and the
// merge's refill buffers (see mapreduce/job.h).

#ifndef DENSEST_MAPREDUCE_MR_DENSEST_H_
#define DENSEST_MAPREDUCE_MR_DENSEST_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/density.h"
#include "mapreduce/graph_jobs.h"
#include "mapreduce/job.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief Knobs for the undirected MapReduce driver.
struct MrDensestOptions {
  double epsilon = 1.0;
  /// Safety cap on passes (0 = uncapped), as Algorithm1Options::max_passes;
  /// a capped run carries no certified band.
  uint64_t max_passes = 1000;
  bool record_trace = true;
  /// Shuffle spill budget per job in bytes (see
  /// JobOptions::spill_budget_bytes). 0 keeps every shuffle in memory.
  uint64_t spill_budget_bytes = 0;
  /// Directory for spill files ("" = the system temp directory).
  std::string spill_dir;
};

/// \brief Result plus cluster accounting.
struct [[nodiscard]] MrDensestResult {
  UndirectedDensestResult result;
  /// Job counters summed over each pass's jobs, one entry per pass (and so
  /// one per trace snapshot when the trace is recorded). Their
  /// simulated_seconds are the series of Figure 6.7; the combiner/spill
  /// gates read the rest.
  std::vector<JobStats> pass_stats;
  /// Physical scans of the input stream: the first pass's degree job and
  /// its removal job each scan it once. Once the removal job has
  /// materialized the survivors, later passes run in memory and scan
  /// nothing.
  uint64_t input_scans = 0;
};

/// Runs the MapReduce version of Algorithm 1 over an edge stream.
/// Produces exactly the same subgraph, passes and trace as RunAlgorithm1
/// with the same epsilon and cap (both take Algorithm 1's peel step); only
/// the execution substrate differs. Unweighted edges only (weights are
/// ignored).
StatusOr<MrDensestResult> RunMrDensestUndirected(MapReduceEnv& env,
                                                 EdgeStream& stream,
                                                 const MrDensestOptions& options);

/// \brief Knobs for the directed MapReduce driver (one ratio c).
struct MrDirectedOptions {
  double c = 1.0;
  double epsilon = 1.0;
  /// Safety cap on passes (0 = uncapped), as Algorithm3Options::max_passes;
  /// a capped run carries no certified band.
  uint64_t max_passes = 1000;
  bool record_trace = true;
  /// See MrDensestOptions.
  uint64_t spill_budget_bytes = 0;
  std::string spill_dir;
};

/// \brief Directed result plus cluster accounting.
struct [[nodiscard]] MrDirectedResult {
  DirectedDensestResult result;
  /// See MrDensestResult.
  std::vector<JobStats> pass_stats;
  uint64_t input_scans = 0;
};

/// Runs the MapReduce version of Algorithm 3 over an arc stream.
/// Matches RunAlgorithm3 with the same options (size-ratio rule), trace
/// included.
StatusOr<MrDirectedResult> RunMrDensestDirected(MapReduceEnv& env,
                                                EdgeStream& stream,
                                                const MrDirectedOptions& options);

}  // namespace densest

#endif  // DENSEST_MAPREDUCE_MR_DENSEST_H_

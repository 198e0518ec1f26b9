// Copyright 2026 The densest Authors.
// Cluster cost model for the MapReduce simulator. The simulator executes
// jobs for real (so results are testable); this model converts the job's
// record/byte counts into the wall-clock a Hadoop cluster of the paper's
// scale (§6.6: 2000 mappers, 2000 reducers) would have spent. Figure 6.7's
// shape — per-pass time decaying to a scheduling-overhead floor as the
// graph shrinks — falls out of records/workers + fixed overhead.

#ifndef DENSEST_MAPREDUCE_COST_MODEL_H_
#define DENSEST_MAPREDUCE_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace densest {

/// \brief Per-record / per-byte costs of one simulated cluster.
struct CostModel {
  /// Simulated map workers ("mappers" in §6.6).
  int num_mappers = 2000;
  /// Simulated reduce workers.
  int num_reducers = 2000;
  /// Seconds to process one record in a map task.
  double map_seconds_per_record = 2e-6;
  /// Seconds per byte the mappers *read from the DFS* (the stream scan
  /// feeding the map tasks). Charged only for stream-backed job inputs;
  /// in-memory survivor passes read cluster RAM and pay nothing here.
  double map_input_seconds_per_byte = 2e-9;
  /// Seconds to process one record in a reduce task.
  double reduce_seconds_per_record = 2e-6;
  /// Seconds per shuffled byte (network + sort).
  double shuffle_seconds_per_byte = 4e-9;
  /// Seconds per record entering a map-side combiner (in-memory sort +
  /// partial reduce; cheaper than a full map record).
  double combine_seconds_per_record = 5e-7;
  /// Seconds per byte written to or merge-read back from shuffle spill
  /// (local sequential disk IO on the reduce side).
  double spill_seconds_per_byte = 1e-9;
  /// Fixed per-job overhead: scheduling, task startup, commit (Hadoop jobs
  /// pay tens of seconds regardless of input size).
  double job_overhead_seconds = 75.0;
  /// Stragglers etc.: multiplier on the per-worker critical path.
  double skew_factor = 1.3;
};

/// \brief Execution counters of one simulated job.
struct JobStats {
  uint64_t map_input_records = 0;
  /// Bytes the map phase read from the DFS (stream-backed sources only;
  /// 0 for in-memory inputs). What map_input_seconds_per_byte charges.
  uint64_t map_input_bytes = 0;
  uint64_t map_output_records = 0;
  /// Records fed through a map-side combiner (0 when the job has none);
  /// what the cost model charges combiner time for.
  uint64_t combine_input_records = 0;
  /// Records after map-side combining (== map_output_records when the job
  /// has no combiner). This is what actually crosses the shuffle.
  uint64_t combine_output_records = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t reduce_input_groups = 0;
  uint64_t reduce_output_records = 0;
  /// Shuffle-spill IO: bytes serialized to temp files when partitions
  /// exceed the memory budget, and bytes merge-read back at reduce time.
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;
  /// Sorted runs spilled across all partitions.
  uint64_t spill_runs = 0;
  /// Transient IO faults retried during the job (input source reads plus
  /// spill IO), and how many operations healed after retrying. Nonzero
  /// counters on a successful job mean it limped through transient faults.
  uint64_t io_retries = 0;
  uint64_t io_retries_healed = 0;
  /// Wall-clock the modeled cluster would have spent on this job.
  double simulated_seconds = 0;

  /// Accumulates counters (and time) of another job.
  void Accumulate(const JobStats& other);

  std::string ToString() const;
};

/// The counters of several jobs (or passes) summed in order, e.g. a
/// driver run's totals from its pass_stats.
JobStats SumJobStats(const std::vector<JobStats>& jobs);

/// Computes the simulated wall-clock of a job with the given counters:
/// overhead + skew * (map time + shuffle time + reduce time), where each
/// phase is divided across its workers.
double SimulateJobSeconds(const CostModel& model, const JobStats& stats);

}  // namespace densest

#endif  // DENSEST_MAPREDUCE_COST_MODEL_H_

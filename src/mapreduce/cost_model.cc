#include "mapreduce/cost_model.h"

#include <algorithm>
#include <sstream>

namespace densest {

void JobStats::Accumulate(const JobStats& other) {
  map_input_records += other.map_input_records;
  map_input_bytes += other.map_input_bytes;
  map_output_records += other.map_output_records;
  combine_input_records += other.combine_input_records;
  combine_output_records += other.combine_output_records;
  shuffle_bytes += other.shuffle_bytes;
  reduce_input_groups += other.reduce_input_groups;
  reduce_output_records += other.reduce_output_records;
  spill_bytes_written += other.spill_bytes_written;
  spill_bytes_read += other.spill_bytes_read;
  spill_runs += other.spill_runs;
  io_retries += other.io_retries;
  io_retries_healed += other.io_retries_healed;
  simulated_seconds += other.simulated_seconds;
}

JobStats SumJobStats(const std::vector<JobStats>& jobs) {
  JobStats total;
  for (const JobStats& job : jobs) total.Accumulate(job);
  return total;
}

std::string JobStats::ToString() const {
  std::ostringstream os;
  os << "map_in=" << map_input_records
     << " map_in_bytes=" << map_input_bytes
     << " map_out=" << map_output_records
     << " combine_in=" << combine_input_records
     << " combine_out=" << combine_output_records
     << " shuffle_bytes=" << shuffle_bytes
     << " reduce_groups=" << reduce_input_groups
     << " reduce_out=" << reduce_output_records
     << " spill_written=" << spill_bytes_written
     << " spill_read=" << spill_bytes_read;
  if (io_retries > 0 || io_retries_healed > 0) {
    os << " io_retries=" << io_retries
       << " io_retries_healed=" << io_retries_healed;
  }
  os << " sim_seconds=" << simulated_seconds;
  return os.str();
}

double SimulateJobSeconds(const CostModel& model, const JobStats& stats) {
  const double mappers = std::max(1, model.num_mappers);
  const double reducers = std::max(1, model.num_reducers);
  // Combining runs on the mappers (it is part of the map task); spill IO
  // runs on the reducers (Hadoop's merge phase).
  double map_time = (static_cast<double>(stats.map_input_records) *
                         model.map_seconds_per_record +
                     static_cast<double>(stats.map_input_bytes) *
                         model.map_input_seconds_per_byte +
                     static_cast<double>(stats.combine_input_records) *
                         model.combine_seconds_per_record) /
                    mappers;
  double shuffle_time = static_cast<double>(stats.shuffle_bytes) *
                        model.shuffle_seconds_per_byte / reducers;
  double reduce_time = (static_cast<double>(stats.combine_output_records) *
                            model.reduce_seconds_per_record +
                        static_cast<double>(stats.spill_bytes_written +
                                            stats.spill_bytes_read) *
                            model.spill_seconds_per_byte) /
                       reducers;
  return model.job_overhead_seconds +
         model.skew_factor * (map_time + shuffle_time + reduce_time);
}

}  // namespace densest

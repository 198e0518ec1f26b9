#include "mapreduce/mr_densest.h"

#include <memory>
#include <optional>
#include <string>

#include "core/peel_runs.h"
#include "mapreduce/stream_source.h"

namespace densest {

namespace {

/// The per-pass input of a driver: the input stream until the first
/// removal job materializes its survivors, an in-memory vector after.
/// Jobs pull whichever is current through the RecordSource interface.
class DriverInput {
 public:
  explicit DriverInput(EdgeStream& stream) : stream_source_(stream) {}

  MrEdgeSource& source() {
    if (on_stream_) return stream_source_;
    vector_source_.emplace(edges_);
    return *vector_source_;
  }

  /// Installs the removal job's survivors; later passes run in memory.
  void ReplaceWithSurvivors(MrEdges&& survivors) {
    edges_ = std::move(survivors);
    on_stream_ = false;
  }

  /// Physical scans of the input stream so far.
  uint64_t input_scans() const { return stream_source_.scans(); }
  bool in_memory_empty() const { return !on_stream_ && edges_.empty(); }

 private:
  StreamRecordSource stream_source_;
  MrEdges edges_;
  // Rebuilt per source() call: VectorRecordSource carries a cursor, and a
  // fresh one guarantees every job starts at record zero.
  std::optional<VectorRecordSource<NodeId, NodeId>> vector_source_;
  bool on_stream_ = true;
};

/// The degree job keys its output by the endpoints it read; an edge whose
/// endpoint lies outside the stream's [0, n) fails the run here, before
/// the driver indexes an n-sized array by it.
Status EndpointOutOfRange(uint64_t id, NodeId n) {
  return Status::InvalidArgument("edge endpoint " + std::to_string(id) +
                                 " out of range for " + std::to_string(n) +
                                 " nodes");
}

JobOptions DriverJobOptions(uint64_t spill_budget_bytes,
                            const std::string& spill_dir) {
  JobOptions opts;
  opts.spill_budget_bytes = spill_budget_bytes;
  opts.spill_dir = spill_dir;
  return opts;
}

}  // namespace

StatusOr<MrDensestResult> RunMrDensestUndirected(
    MapReduceEnv& env, EdgeStream& stream, const MrDensestOptions& options) {
  Algorithm1Options peel_options;
  peel_options.epsilon = options.epsilon;
  peel_options.max_passes = options.max_passes;
  peel_options.record_trace = options.record_trace;
  const NodeId n = stream.num_nodes();
  if (Status s = Algorithm1Run::Validate(n, peel_options); !s.ok()) return s;

  MrDensestResult out;
  UndirectedPeel peel(n, peel_options.epsilon, peel_options.max_passes,
                      peel_options.record_trace);
  DriverInput input(stream);
  const JobOptions base_opts =
      DriverJobOptions(options.spill_budget_bytes, options.spill_dir);

  std::vector<double> deg(n, 0.0);
  while (!peel.done()) {
    JobStats pass_stats;

    // Job 1 (§5.2 "degrees"): per-node induced degrees, combined map-side
    // so the shuffle carries O(|V_alive|) records per chunk, not O(|E|).
    JobStats degree_stats;
    JobOptions degree_opts = base_opts;
    degree_opts.reduce_output_hint = peel.alive().size();
    StatusOr<std::vector<KV<NodeId, EdgeId>>> degrees =
        MrDegreeJobCombined(env, input.source(), degree_opts, &degree_stats);
    if (!degrees.ok()) return degrees.status();
    pass_stats.Accumulate(degree_stats);

    // §5.2 "density", derived instead of run as a job: every edge adds 1
    // to the degree of each endpoint (a self-loop adds 2 to its node), so
    // |E(S)| is half the degree sum.
    std::fill(deg.begin(), deg.end(), 0.0);
    EdgeId degree_sum = 0;
    for (const auto& kv : *degrees) {
      if (kv.key >= n) return EndpointOutOfRange(kv.key, n);
      deg[kv.key] = static_cast<double>(kv.value);
      degree_sum += kv.value;
    }
    const EdgeId m = degree_sum / 2;

    // Driver decision: Algorithm 1's peel step on the job's output. (Nodes
    // with no surviving edge have degree 0 and are always marked.)
    NodeSet marked(n);
    peel.Step(deg, static_cast<double>(m), m, &marked);

    // Jobs 2+3 (§5.2 "removal"): delete marked nodes and incident edges.
    if (!marked.empty() && !input.in_memory_empty()) {
      JobStats removal1, removal2;
      JobOptions removal_opts = base_opts;
      removal_opts.reduce_output_hint = m;
      StatusOr<MrEdges> survivors = MrRemoveNodesJob(
          env, input.source(), marked, removal_opts, &removal1, &removal2);
      if (!survivors.ok()) return survivors.status();
      input.ReplaceWithSurvivors(std::move(*survivors));
      pass_stats.Accumulate(removal1);
      pass_stats.Accumulate(removal2);
    }
    out.pass_stats.push_back(pass_stats);
  }

  out.result = peel.Finish();
  out.input_scans = input.input_scans();
  return out;
}

StatusOr<MrDirectedResult> RunMrDensestDirected(
    MapReduceEnv& env, EdgeStream& stream, const MrDirectedOptions& options) {
  Algorithm3Options peel_options;
  peel_options.c = options.c;
  peel_options.epsilon = options.epsilon;
  peel_options.max_passes = options.max_passes;
  peel_options.record_trace = options.record_trace;
  const NodeId n = stream.num_nodes();
  if (Status s = Algorithm3Run::Validate(n, peel_options); !s.ok()) return s;

  MrDirectedResult out;
  DirectedPeel peel(n, peel_options);
  DriverInput input(stream);
  const JobOptions base_opts =
      DriverJobOptions(options.spill_budget_bytes, options.spill_dir);

  std::vector<double> out_deg(n, 0.0), in_deg(n, 0.0);
  while (!peel.done()) {
    JobStats pass_stats;

    JobStats degree_stats;
    JobOptions degree_opts = base_opts;
    degree_opts.reduce_output_hint = peel.s().size() + peel.t().size();
    StatusOr<std::vector<KV<uint64_t, EdgeId>>> degrees =
        MrDirectedDegreeJobCombined(env, input.source(), degree_opts,
                                    &degree_stats);
    if (!degrees.ok()) return degrees.status();
    pass_stats.Accumulate(degree_stats);

    // §5.2 "density", derived: every arc adds 1 to its source's out-degree,
    // so |E(S, T)| is the out-degree sum.
    std::fill(out_deg.begin(), out_deg.end(), 0.0);
    std::fill(in_deg.begin(), in_deg.end(), 0.0);
    EdgeId m = 0;
    for (const auto& kv : *degrees) {
      if ((kv.key >> 1) >= n) return EndpointOutOfRange(kv.key >> 1, n);
      const bool in_side = (kv.key & 1) != 0;
      std::vector<double>& side = in_side ? in_deg : out_deg;
      side[static_cast<NodeId>(kv.key >> 1)] = static_cast<double>(kv.value);
      if (!in_side) m += kv.value;
    }
    NodeSet marked(n);
    const bool peel_s =
        peel.Step(out_deg, in_deg, static_cast<double>(m), &marked);

    if (!marked.empty() && !input.in_memory_empty()) {
      JobStats removal_stats;
      JobOptions removal_opts = base_opts;
      removal_opts.reduce_output_hint = m;
      StatusOr<MrEdges> survivors =
          MrRemoveArcsJob(env, input.source(), marked, /*by_source=*/peel_s,
                          removal_opts, &removal_stats);
      if (!survivors.ok()) return survivors.status();
      input.ReplaceWithSurvivors(std::move(*survivors));
      pass_stats.Accumulate(removal_stats);
    }
    out.pass_stats.push_back(pass_stats);
  }

  out.result = peel.Finish();
  out.input_scans = input.input_scans();
  return out;
}

}  // namespace densest

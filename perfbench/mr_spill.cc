// mr-spill: MapReduce Algorithm 1 (eps = 1.0) over a BinaryFileEdgeStream
// graph with the shuffle spill budget set far below the jobs' shuffles. The
// only workload where map, combine, spill, merge and reduce dominate; it
// also shows whether an engine change leaks into the MapReduce path.

#include <filesystem>
#include <memory>
#include <system_error>

#include "batch.h"
#include "core/algorithm1.h"
#include "core/pass_engine.h"
#include "mapreduce/mr_densest.h"
#include "stream/file_stream.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using densest::NodeId;

constexpr NodeId kNodes = 200000;
constexpr uint64_t kEdges = 2000000;
constexpr double kEpsilon = 1.0;
constexpr uint64_t kSpillBudgetBytes = 256 << 10;

class MrSpill final : public BatchWorkload {
 public:
  bool Setup(const Args& args) override {
    path_ = args.data_dir + "/mr_spill.bin";
    spill_dir_ = args.data_dir + "/spill";
    std::error_code ec;
    std::filesystem::create_directories(spill_dir_, ec);
    if (ec) return false;
    const uint64_t seed = SubSeed(args.seed, 3);
    const std::string path = path_;
    if (!RunInChild([&] {
          return WriteEdges(path, kNodes,
                            ChungLuWithBlock(kNodes, kEdges, 2.3, 300, 0.5,
                                             seed));
        })) {
      return false;
    }
    auto stream = densest::BinaryFileEdgeStream::Open(path_);
    if (!stream.ok()) return false;
    stream_ = std::move(*stream);
    env_ = std::make_unique<densest::MapReduceEnv>(densest::CostModel{},
                                                   kSolveThreads);
    return true;
  }

  uint64_t input_edges() const override { return stream_->SizeHint(); }

  bool Run(bool traced, Solve* out, Report& report) override {
    densest::MrDensestOptions options;
    options.epsilon = kEpsilon;
    options.spill_budget_bytes = kSpillBudgetBytes;
    options.spill_dir = spill_dir_;
    TimedEdgeStream timed(*stream_);
    densest::EdgeStream& input =
        traced ? static_cast<densest::EdgeStream&>(timed) : *stream_;
    const uint64_t bytes0 = stream_->bytes_read();
    TraceScope scope(traced);
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    auto result = densest::RunMrDensestUndirected(*env_, input, options);
    out->wall_s = SecondsSince(t0);
    out->cpu_s = ProcessCpuSeconds() - cpu0;
    timed.Finish();
    if (!result.ok()) return false;
    densest::JobStats job;
    for (const densest::JobStats& s : result->pass_stats) job.Accumulate(s);
    out->answer = {result->result.nodes, Bits(result->result.density),
                   result->input_scans};
    out->density = result->result.density;
    out->upper_bound = result->result.ToAnswer().upper_bound;
    out->records_applied = static_cast<double>(job.map_input_records);
    report.Attempt();
    if (job.spill_bytes_written == 0) {
      report.Fail("mr-spill: the shuffle did not spill");
    }
    if (!traced) return true;

    const std::map<std::string, double> spans = DrainSpanSeconds();
    double read_s = 0;
    for (const TimedEdgeStream::Pass& p : timed.passes()) read_s += p.read_s;
    if (timed.passes().size() != result->input_scans) {
      report.Fail("mr-spill: decorator saw a different scan count");
    }
    const double bytes = static_cast<double>(stream_->bytes_read() - bytes0);
    const double map_s = SpanSeconds(spans, "mr.map_phase");
    const double reduce_s = SpanSeconds(spans, "mr.reduce_phase");
    Layers& l = out->layers;
    l["stream.read_s"] = {read_s, "s"};
    l["stream.bytes_read"] = {bytes, "B"};
    l["stream.read_gbps"] = {bytes / read_s / 1e9, "GB/s"};
    l["mapreduce.map_phase_s"] = {map_s, "s"};
    l["mapreduce.reduce_phase_s"] = {reduce_s, "s"};
    l["mapreduce.input_read_s"] = {read_s, "s"};
    l["mapreduce.map_output_records"] = {
        static_cast<double>(job.map_output_records), "count"};
    l["mapreduce.combine_ratio"] = {
        job.combine_input_records == 0
            ? 1.0
            : static_cast<double>(job.combine_output_records) /
                  static_cast<double>(job.combine_input_records),
        "ratio"};
    l["mapreduce.shuffle_bytes"] = {static_cast<double>(job.shuffle_bytes),
                                    "B"};
    l["mapreduce.spill_bytes_written"] = {
        static_cast<double>(job.spill_bytes_written), "B"};
    l["mapreduce.spill_bytes_read"] = {
        static_cast<double>(job.spill_bytes_read), "B"};
    l["mapreduce.spill_runs"] = {static_cast<double>(job.spill_runs),
                                 "count"};
    l["mapreduce.reduce_groups"] = {
        static_cast<double>(job.reduce_input_groups), "count"};
    l["mapreduce.simulated_s"] = {job.simulated_seconds, "s"};
    l["harness.unattributed_s"] = {out->wall_s - map_s - reduce_s, "s"};
    return true;
  }

  /// The streaming Algorithm 1 at the same eps: the MapReduce solve must
  /// return the same subgraph.
  bool Reference(Solve* out, Report& report) override {
    (void)report;
    densest::PassEngine engine(
        densest::PassEngineOptions{FileEngineThreads()});
    densest::Algorithm1Options options;
    options.epsilon = kEpsilon;
    options.engine = &engine;
    const Clock::time_point t0 = Clock::now();
    auto result = densest::RunAlgorithm1(*stream_, options);
    out->wall_s = SecondsSince(t0);
    if (!result.ok()) return false;
    out->answer = {result->nodes, Bits(result->density), result->passes};
    out->density = result->density;
    return true;
  }

  void Check(const Solve& answer, const Solve& reference,
             Report& report) override {
    report.Attempt();
    if (answer.answer.nodes != reference.answer.nodes ||
        answer.answer.density_bits != reference.answer.density_bits) {
      report.Fail("mr-spill: subgraph differs from RunAlgorithm1");
    }
  }

 private:
  std::string path_, spill_dir_;
  std::unique_ptr<densest::BinaryFileEdgeStream> stream_;
  std::unique_ptr<densest::MapReduceEnv> env_;
};

}  // namespace

void RunMrSpill(const Args& args, Report& report) {
  RunBatch([] { return std::make_unique<MrSpill>(); }, args, report);
}

}  // namespace perfbench

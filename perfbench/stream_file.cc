// stream-file: Algorithm 1 (eps = 0.5, no compaction, one engine thread,
// see kSolveThreads) over a BinaryFileEdgeStream of a generated
// heavy-tailed graph.
// The paper's semi-streaming setting: file reads and the PassEngine pass
// kernel do nearly all the work; multi-run, MapReduce, dynamic and serving
// stay idle.

#include <memory>

#include "batch.h"
#include "core/algorithm1.h"
#include "core/pass_engine.h"
#include "stream/file_stream.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using densest::NodeId;

constexpr NodeId kNodes = 1000000;
constexpr uint64_t kEdges = 10000000;
constexpr double kEpsilon = 0.5;

class StreamFile final : public BatchWorkload {
 public:
  bool Setup(const Args& args) override {
    path_ = args.data_dir + "/stream_file.bin";
    const uint64_t seed = SubSeed(args.seed, 1);
    const std::string path = path_;
    if (!RunInChild([&] {
          return WriteEdges(path, kNodes,
                            ChungLuWithBlock(kNodes, kEdges, 2.3, 400, 0.5,
                                             seed));
        })) {
      return false;
    }
    auto stream = densest::BinaryFileEdgeStream::Open(path_);
    if (!stream.ok()) return false;
    stream_ = std::move(*stream);
    engine_ = std::make_unique<densest::PassEngine>(
        densest::PassEngineOptions{kSolveThreads});
    return true;
  }

  uint64_t input_edges() const override { return stream_->SizeHint(); }

  bool Run(bool traced, Solve* out, Report& report) override {
    return SolveWith(*engine_, traced, out, report);
  }

  bool Reference(Solve* out, Report& report) override {
    densest::PassEngine all(densest::PassEngineOptions{FileEngineThreads()});
    return SolveWith(all, false, out, report);
  }

  void Check(const Solve& answer, const Solve& reference,
             Report& report) override {
    report.Attempt();
    if (!(answer.answer == reference.answer)) {
      report.Fail(
          "stream-file: answer differs from the nproc-thread reference");
    }
    // Independent recount of rho(S) = |E(S)| / |S| over the file.
    report.Attempt();
    auto stream = densest::BinaryFileEdgeStream::Open(path_);
    if (!stream.ok()) {
      report.Fail("stream-file: reopen for recount");
      return;
    }
    std::vector<uint8_t> in(kNodes, 0);
    for (NodeId v : answer.answer.nodes) in[v] = 1;
    uint64_t inside = 0;
    densest::ForEachEdge(**stream, [&](const densest::Edge& e) {
      inside += in[e.u] & in[e.v];
    });
    const double rho = static_cast<double>(inside) /
                       static_cast<double>(answer.answer.nodes.size());
    if (!(*stream)->status().ok() || Bits(rho) != Bits(answer.density)) {
      report.Fail("stream-file: recounted density differs from the answer");
    }
  }

  void Finish(const std::vector<Solve>& plain, const Solve& reference,
              Report& report) override {
    std::vector<double> walls;
    for (const Solve& s : plain) walls.push_back(s.wall_s);
    report.Add("pass_engine.thread_scaling", Median(walls) / reference.wall_s,
               "ratio");
  }

 private:
  bool SolveWith(densest::PassEngine& engine, bool traced, Solve* out,
                 Report& report) {
    densest::Algorithm1Options options;
    options.epsilon = kEpsilon;
    options.engine = &engine;
    TimedEdgeStream timed(*stream_);
    densest::EdgeStream& input =
        traced ? static_cast<densest::EdgeStream&>(timed) : *stream_;
    const uint64_t bytes0 = stream_->bytes_read();
    TraceScope scope(traced);
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    auto result = densest::RunAlgorithm1(input, options);
    out->wall_s = SecondsSince(t0);
    out->cpu_s = ProcessCpuSeconds() - cpu0;
    timed.Finish();
    if (!result.ok()) return false;
    out->answer = {result->nodes, Bits(result->density), result->io_passes};
    out->density = result->density;
    out->upper_bound = result->ToAnswer().upper_bound;
    out->records_applied =
        static_cast<double>(result->io_passes * input_edges());
    if (!traced) return true;

    const std::map<std::string, double> spans = DrainSpanSeconds();
    if (timed.passes().size() != result->io_passes) {
      report.Fail("stream-file: decorator saw a different pass count");
    }
    Layers& l = out->layers;
    AddPassLayers(timed, out->wall_s, l);
    double alive = 0;
    for (const densest::PassSnapshot& p : result->trace) {
      alive += static_cast<double>(p.edges);
    }
    const double bytes = static_cast<double>(stream_->bytes_read() - bytes0);
    l["stream.bytes_read"] = {bytes, "B"};
    l["stream.read_gbps"] = {bytes / l["stream.read_s"].first / 1e9, "GB/s"};
    l["pass_engine.kernel_s"] = {SpanSeconds(spans, "core.pass_round"), "s"};
    l["pass_engine.alive_frac"] = {
        alive / l["pass_engine.edges_scanned"].first, "ratio"};
    l["pass_engine.cpu_util"] = {out->cpu_s / out->wall_s, "ratio"};
    return true;
  }

  std::string path_;
  std::unique_ptr<densest::BinaryFileEdgeStream> stream_;
  std::unique_ptr<densest::PassEngine> engine_;
};

}  // namespace

void RunStreamFile(const Args& args, Report& report) {
  RunBatch([] { return std::make_unique<StreamFile>(); }, args, report);
}

}  // namespace perfbench

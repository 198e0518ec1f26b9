// csearch-mem: the Algorithm 3 directed c-search (delta = 2, eps = 0.5,
// about 35 ratios) fused through MultiRunEngine over a zero-copy in-memory
// R-MAT arc stream of twitter-sim shape. Directed accumulation and the
// K-run fan-out dominate and there is no file IO, so a stream-layer change
// should leave it unchanged while an engine or threading change moves it.

#include <cmath>
#include <memory>

#include "batch.h"
#include "core/algorithm3.h"
#include "core/multi_run.h"
#include "graph/edge_list.h"
#include "stream/file_stream.h"
#include "stream/memory_stream.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using densest::NodeId;

constexpr int kScale = 16;
constexpr uint64_t kArcs = 800000;

class CSearchMem final : public BatchWorkload {
 public:
  bool Setup(const Args& args) override {
    const std::string path = args.data_dir + "/csearch_mem.bin";
    const uint64_t seed = SubSeed(args.seed, 2);
    if (!RunInChild([&] {
          return WriteEdges(path, NodeId{1} << kScale,
                            RmatTwitterShape(kScale, kArcs, 30, 6000, seed));
        })) {
      return false;
    }
    // Load the arcs into memory; the solves then read them zero-copy.
    auto file = densest::BinaryFileEdgeStream::Open(path);
    if (!file.ok()) return false;
    std::vector<densest::Edge> arcs((*file)->SizeHint());
    (*file)->Reset();
    const size_t got = (*file)->NextBatch(arcs.data(), arcs.size());
    if (got != arcs.size() || !(*file)->status().ok()) return false;
    arcs_ = densest::EdgeList((*file)->num_nodes(), std::move(arcs));
    stream_ = std::make_unique<densest::EdgeListStream>(arcs_);
    engine_ = std::make_unique<densest::MultiRunEngine>(
        densest::MultiRunOptions{kSolveThreads});
    return true;
  }

  uint64_t input_edges() const override { return arcs_.num_edges(); }

  bool Run(bool traced, Solve* out, Report& report) override {
    return SolveWith(*engine_, traced, out, report);
  }

  bool Reference(Solve* out, Report& report) override {
    densest::MultiRunEngine all(densest::MultiRunOptions{Threads()});
    return SolveWith(all, false, out, report);
  }

  void Check(const Solve& answer, const Solve& reference,
             Report& report) override {
    report.Attempt();
    if (!(answer.answer == reference.answer)) {
      report.Fail(
          "csearch-mem: answer differs from the nproc-thread reference");
    }
    // Independent recount of rho(S,T) = |E(S,T)| / sqrt(|S||T|).
    report.Attempt();
    std::vector<uint8_t> in_s(arcs_.num_nodes(), 0), in_t(arcs_.num_nodes(), 0);
    double s_size = 0, t_size = 0;
    bool in_t_part = false;
    for (NodeId v : answer.answer.nodes) {
      if (v == densest::kInvalidNode) {
        in_t_part = true;
      } else {
        (in_t_part ? in_t : in_s)[v] = 1;
        (in_t_part ? t_size : s_size) += 1;
      }
    }
    double inside = 0;
    for (const densest::Edge& e : arcs_.edges()) {
      inside += in_s[e.u] & in_t[e.v];
    }
    const double rho = inside / std::sqrt(s_size * t_size);
    if (Bits(rho) != Bits(answer.density)) {
      report.Fail("csearch-mem: recounted density differs from the answer");
    }
  }

  void Finish(const std::vector<Solve>& plain, const Solve& reference,
              Report& report) override {
    std::vector<double> walls;
    for (const Solve& s : plain) walls.push_back(s.wall_s);
    report.Add("multi_run.thread_scaling", Median(walls) / reference.wall_s,
               "ratio");
  }

 private:
  bool SolveWith(densest::MultiRunEngine& engine, bool traced, Solve* out,
                 Report& report) {
    densest::CSearchOptions options;
    options.delta = 2.0;
    options.epsilon = 0.5;
    options.multi_engine = &engine;
    TimedEdgeStream timed(*stream_);
    densest::EdgeStream& input =
        traced ? static_cast<densest::EdgeStream&>(timed) : *stream_;
    TraceScope scope(traced);
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    auto result = densest::RunCSearch(input, options);
    out->wall_s = SecondsSince(t0);
    out->cpu_s = ProcessCpuSeconds() - cpu0;
    timed.Finish();
    if (!result.ok()) return false;
    const densest::DirectedDensestResult& best = result->best;
    out->answer.nodes = best.s_nodes;
    out->answer.nodes.push_back(densest::kInvalidNode);  // S | T separator
    out->answer.nodes.insert(out->answer.nodes.end(), best.t_nodes.begin(),
                             best.t_nodes.end());
    out->answer.density_bits = Bits(best.density);
    out->answer.passes = result->physical_scans;
    out->density = best.density;
    out->upper_bound = best.ToAnswer().upper_bound;
    const double logical = static_cast<double>(engine.last_logical_passes());
    out->records_applied = logical * static_cast<double>(input_edges());
    if (!traced) return true;

    const std::map<std::string, double> spans = DrainSpanSeconds();
    const double physical = static_cast<double>(engine.last_physical_passes());
    if (timed.passes().size() != result->physical_scans) {
      report.Fail("csearch-mem: decorator saw a different scan count");
    }
    // The in-memory stream hands out views of the arc array and copies no
    // bytes, so only its call time (stream.read_s) is reported.
    Layers& l = out->layers;
    AddPassLayers(timed, out->wall_s, l);
    l["multi_run.physical_scans"] = {physical, "count"};
    l["multi_run.logical_passes"] = {logical, "count"};
    l["multi_run.fusion_ratio"] = {logical / physical, "ratio"};
    l["multi_run.round_s"] = {SpanSeconds(spans, "core.fused_round"), "s"};
    l["multi_run.cpu_util"] = {out->cpu_s / out->wall_s, "ratio"};
    return true;
  }

  densest::EdgeList arcs_;
  std::unique_ptr<densest::EdgeListStream> stream_;
  std::unique_ptr<densest::MultiRunEngine> engine_;
};

}  // namespace

void RunCSearchMem(const Args& args, Report& report) {
  RunBatch([] { return std::make_unique<CSearchMem>(); }, args, report);
}

}  // namespace perfbench

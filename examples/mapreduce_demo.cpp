// MapReduce walkthrough (§5.2): run the densest-subgraph computation as a
// sequence of MapReduce jobs on a simulated cluster — out-of-core. The
// input is written to a binary edge file and the jobs scan it as a stream;
// each job's shuffle spills to temp files under a byte budget, so shuffle
// memory is bounded by the budget instead of growing with |E| (the removal
// job's shrinking survivor set is the only edge data kept between passes).
// The answer is verified bit for bit against the streaming implementation.

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "densest.h"

int main() {
  using namespace densest;

  // Workload: a messenger-style contact graph with a dense community.
  ChungLuOptions cl;
  cl.num_nodes = 30000;
  cl.num_edges = 150000;
  cl.exponent = 2.5;
  EdgeList edges = ChungLu(cl, 161);
  PlantedGraph planted = PlantDenseBlocks(cl.num_nodes, 0, {{50, 0.8}}, 3);
  edges.Append(planted.edges);
  GraphBuilder builder;
  builder.ReserveNodes(edges.num_nodes());
  for (const Edge& e : edges.edges()) builder.Add(e.u, e.v);
  EdgeList cleaned = std::move(builder.BuildEdgeList(true)).value();
  std::printf("graph: |V|=%u |E|=%llu\n", cleaned.num_nodes(),
              static_cast<unsigned long long>(cleaned.num_edges()));

  // Stage it as a binary edge file: the honest out-of-core configuration.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mapreduce_demo_" + std::to_string(::getpid()) + ".bin"))
          .string();
  if (!WriteBinaryEdgeFile(path, cleaned, /*weighted=*/false).ok()) {
    std::remove(path.c_str());  // a partial write may have left a stub
    return 1;
  }
  auto stream = BinaryFileEdgeStream::Open(path);
  if (!stream.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 stream.status().ToString().c_str());
    std::remove(path.c_str());
    return 1;
  }
  std::printf("staged to %s (%llu bytes on disk)\n\n", path.c_str(),
              static_cast<unsigned long long>(
                  std::filesystem::file_size(path)));

  // Model a modest Hadoop cluster (the paper used 2000+2000 workers).
  CostModel model;
  model.num_mappers = 200;
  model.num_reducers = 200;
  model.job_overhead_seconds = 30.0;
  MapReduceEnv env(model);

  MrDensestOptions options;
  options.epsilon = 1.0;
  // Cap each job's resident shuffle at 256 KiB — far below the ~2.4 MB of
  // degree-job records — so the first passes must spill and merge-read.
  options.spill_budget_bytes = 256 << 10;
  StatusOr<MrDensestResult> mr =
      RunMrDensestUndirected(env, **stream, options);
  if (!mr.ok()) {
    std::fprintf(stderr, "MR run failed: %s\n",
                 mr.status().ToString().c_str());
    std::remove(path.c_str());
    return 1;
  }

  std::printf("per-pass cluster cost (each pass = degree job + 2 removal "
              "jobs; |E(S)| is derived from the degrees):\n");
  std::printf("%6s %10s %12s %14s %16s %12s\n", "pass", "|S|", "|E(S)|",
              "rho(S)", "sim cluster sec", "spill KiB");
  for (size_t i = 0; i < mr->result.trace.size(); ++i) {
    const PassSnapshot& s = mr->result.trace[i];
    std::printf("%6zu %10u %12llu %14.3f %16.1f %12llu\n", i + 1, s.nodes,
                static_cast<unsigned long long>(s.edges), s.density,
                mr->pass_stats[i].simulated_seconds,
                static_cast<unsigned long long>(
                    mr->pass_stats[i].spill_bytes_written >> 10));
  }
  std::printf("\nMR result: %s\n", Summarize(mr->result).c_str());
  std::printf("input stream scans: %llu (first pass only; later passes run "
              "over the in-memory survivors)\n",
              static_cast<unsigned long long>(mr->input_scans));
  std::printf("cluster totals: %s\n",
              SumJobStats(mr->pass_stats).ToString().c_str());

  // Cross-check against the streaming implementation on the same file.
  Algorithm1Options stream_options;
  stream_options.epsilon = options.epsilon;
  auto streaming = RunAlgorithm1(**stream, stream_options);
  std::remove(path.c_str());
  if (!streaming.ok()) return 1;
  bool identical = streaming->nodes == mr->result.nodes &&
                   streaming->passes == mr->result.passes;
  std::printf("\nstreaming cross-check: %s (rho=%.4f, %llu passes)\n",
              identical ? "IDENTICAL" : "MISMATCH", streaming->density,
              static_cast<unsigned long long>(streaming->passes));
  return identical ? 0 : 1;
}

// Reproduces Figure 6.7: wall-clock time per MapReduce pass on the im
// stand-in, eps in {0, 1, 2}. The jobs execute for real in the simulator —
// scanning the input as an edge stream, combining map-side, spilling the
// shuffle under a byte budget — and the reported minutes come from the
// calibrated cluster cost model (2000 mappers / 2000 reducers).
//
// Usage: bench_fig67_mapreduce [smoke]
//
//   smoke  CI gate on a small binary-file graph: fails (exit 1) when the
//          MR driver diverges from streaming RunAlgorithm1, when the
//          degree job's shuffled records exceed the combiner ceiling
//          (chunks x |V| — the O(|V_alive|) promise), or when a shuffle
//          budget below the KV footprint fails to spill. Emits
//          bench_results/BENCH_mr_shuffle.json either way.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "bench_common.h"
#include "common/timer.h"
#include "core/algorithm1.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "mapreduce/mr_densest.h"
#include "mapreduce/stream_source.h"
#include "stream/file_stream.h"
#include "stream/memory_stream.h"

namespace {

using namespace densest;

/// The smoke gates; false on any failure. Metrics gathered before a
/// failure stay in `json` — the caller writes it on every exit path.
bool RunSmokeGates(bench::BenchJson& json) {
  bool ok = true;

  // A disk-backed input, like the real configuration. Pid-unique name:
  // concurrent invocations must not clobber each other's input.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bench_fig67_smoke_" + std::to_string(::getpid()) + ".bin"))
          .string();
  EdgeList el = ErdosRenyiGnm(3000, 40000, 67);
  if (!WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok()) {
    std::printf("FAIL: cannot write smoke input\n");
    return false;
  }
  auto stream = BinaryFileEdgeStream::Open(path);
  if (!stream.ok()) {
    std::printf("FAIL: %s\n", stream.status().ToString().c_str());
    std::remove(path.c_str());
    return false;
  }

  // Gate 1: result divergence. A spill budget far below the job's KV
  // footprint (40k edges -> ~1 MB of degree-job records) must still
  // reproduce the streaming answer bit for bit.
  Algorithm1Options stream_opt;
  stream_opt.epsilon = 0.0;
  auto streaming = RunAlgorithm1(**stream, stream_opt);
  MapReduceEnv env;
  MrDensestOptions mr_opt;
  mr_opt.epsilon = 0.0;
  mr_opt.spill_budget_bytes = 64 << 10;
  auto mr = RunMrDensestUndirected(env, **stream, mr_opt);
  if (!streaming.ok() || !mr.ok()) {
    std::printf("FAIL: driver error (%s / %s)\n",
                streaming.ok() ? "ok" : streaming.status().ToString().c_str(),
                mr.ok() ? "ok" : mr.status().ToString().c_str());
    std::remove(path.c_str());
    return false;
  }
  const bool identical = mr->result.nodes == streaming->nodes &&
                         mr->result.density == streaming->density &&
                         mr->result.passes == streaming->passes;
  json.Add("identical_to_streaming", identical ? 1 : 0);
  std::printf("MR vs streaming: %s (rho=%.4f, %llu passes, %llu input "
              "scans)\n",
              identical ? "IDENTICAL" : "DIVERGED", mr->result.density,
              static_cast<unsigned long long>(mr->result.passes),
              static_cast<unsigned long long>(mr->input_scans));
  if (!identical) ok = false;

  // Gate 1b: stream-scan IO charge. The first-pass jobs scan the binary
  // file through StreamRecordSource; a zero map_input_bytes total means
  // the cost model stopped charging the DFS read the mappers perform.
  const JobStats totals = SumJobStats(mr->pass_stats);
  json.Add("map_input_bytes",
           static_cast<double>(totals.map_input_bytes));
  std::printf("map input scan: %llu DFS bytes charged\n",
              static_cast<unsigned long long>(totals.map_input_bytes));
  if (totals.map_input_bytes <
      el.num_edges() * StreamRecordSource::kDfsRecordBytes) {
    std::printf("FAIL: map_input_bytes below one full input scan\n");
    ok = false;
  }

  // Gate 2: spill engagement. Under that budget the first-pass shuffles
  // cannot fit in memory; a zero spill count means the budget is ignored.
  json.Add("spill_bytes_written",
           static_cast<double>(totals.spill_bytes_written));
  json.Add("spill_bytes_read",
           static_cast<double>(totals.spill_bytes_read));
  std::printf("shuffle spill: %llu bytes written, %llu read back\n",
              static_cast<unsigned long long>(totals.spill_bytes_written),
              static_cast<unsigned long long>(totals.spill_bytes_read));
  if (totals.spill_bytes_written == 0) {
    std::printf("FAIL: spill budget below the KV footprint never spilled\n");
    ok = false;
  }

  // Gate 3: combiner ceiling on the degree job. Raw map output is 2|E|
  // records; what crosses the shuffle must be bounded by the per-chunk
  // distinct-key ceiling (chunks x |V|), the O(|V_alive|) contract.
  StreamRecordSource source(**stream);
  JobOptions opts;
  JobStats degree_stats;
  auto degrees = MrDegreeJobCombined(env, source, opts, &degree_stats);
  if (!degrees.ok()) {
    std::printf("FAIL: %s\n", degrees.status().ToString().c_str());
    std::remove(path.c_str());
    return false;
  }
  const uint64_t chunks =
      (el.num_edges() + opts.map_chunk_records - 1) / opts.map_chunk_records;
  const uint64_t ceiling = chunks * el.num_nodes();
  json.Add("degree_map_output_records",
           static_cast<double>(degree_stats.map_output_records));
  json.Add("degree_shuffle_records",
           static_cast<double>(degree_stats.combine_output_records));
  json.Add("degree_combiner_ceiling", static_cast<double>(ceiling));
  std::printf("degree job: map_out=%llu shuffled=%llu ceiling=%llu\n",
              static_cast<unsigned long long>(degree_stats.map_output_records),
              static_cast<unsigned long long>(
                  degree_stats.combine_output_records),
              static_cast<unsigned long long>(ceiling));
  if (degree_stats.combine_output_records > ceiling ||
      degree_stats.combine_output_records >=
          degree_stats.map_output_records) {
    std::printf("FAIL: degree shuffle regressed above the combiner "
                "ceiling\n");
    ok = false;
  }

  std::remove(path.c_str());
  return ok;
}

int RunSmoke() {
  bench::Banner("Figure 6.7 [smoke]",
                "MR-vs-streaming divergence + combiner-ceiling + spill gate");
  bench::BenchJson json("mr_shuffle");
  const bool ok = RunSmokeGates(json);
  // Written on success and failure alike: a red CI leg still uploads the
  // partial metrics, which is when they are needed most.
  if (Status js = json.Write(); !js.ok()) {
    std::printf("warning: %s\n", js.ToString().c_str());
  }
  std::printf("%s\n", ok ? "SMOKE OK" : "SMOKE FAILED");
  return ok ? 0 : 1;
}

int RunFigure() {
  bench::Banner("Figure 6.7",
                "im-sim: simulated MapReduce minutes per pass (2000 mappers"
                "/2000 reducers model)");
  auto csv = bench::OpenCsv("fig67_mapreduce",
                            {"eps", "pass", "sim_minutes", "rho"});

  EdgeList im = MakeImSim(2);
  std::printf("graph: |V|=%u |E|=%llu\n", im.num_nodes(),
              static_cast<unsigned long long>(im.num_edges()));

  // Calibrated against the paper's scale: im is ~2500x larger than the
  // stand-in, so per-record costs are scaled by 2500 to emulate the real
  // input volume. The base per-record cost (~93 us incl. disk and sort) is
  // chosen so the first eps=0 pass lands near the paper's ~60 minutes;
  // the *shape* (decay to the job-overhead floor) is the reproduced object.
  CostModel model;
  model.num_mappers = 2000;
  model.num_reducers = 2000;
  model.map_seconds_per_record = 9.3e-5 * 2500;
  model.map_input_seconds_per_byte = 2e-9 * 2500;
  model.reduce_seconds_per_record = 9.3e-5 * 2500;
  model.shuffle_seconds_per_byte = 4e-9 * 2500;
  model.combine_seconds_per_record = 5e-7 * 2500;
  model.spill_seconds_per_byte = 1e-9 * 2500;
  model.job_overhead_seconds = 75.0;

  WallTimer wall;
  for (double eps : {0.0, 1.0, 2.0}) {
    MapReduceEnv env(model);
    MrDensestOptions opt;
    opt.epsilon = eps;
    // Out-of-core posture even on the stand-in: bound each job's resident
    // shuffle at 4 MiB; the first passes spill, the tail fits.
    opt.spill_budget_bytes = 4 << 20;
    EdgeListStream stream(im);
    auto r = RunMrDensestUndirected(env, stream, opt);
    if (!r.ok()) {
      std::printf("MR driver failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("\neps=%.0f (%llu passes, best rho=%.2f, %llu MB spilled)\n",
                eps, static_cast<unsigned long long>(r->result.passes),
                r->result.density,
                static_cast<unsigned long long>(
                    SumJobStats(r->pass_stats).spill_bytes_written >> 20));
    std::printf("  %-6s %14s\n", "pass", "sim minutes");
    for (size_t i = 0; i < r->pass_stats.size(); ++i) {
      double minutes = r->pass_stats[i].simulated_seconds / 60.0;
      std::printf("  %-6zu %14.1f\n", i + 1, minutes);
      if (csv.ok()) {
        csv->AddRow({CsvWriter::Num(eps), std::to_string(i + 1),
                     CsvWriter::Num(minutes),
                     CsvWriter::Num(r->result.trace[i].density)});
      }
    }
  }
  std::printf("\n[real local execution time: %.1fs]\n", wall.ElapsedSeconds());
  std::printf("Paper's observation to reproduce: per-pass time decays to a "
              "job-overhead floor as the graph shrinks; the whole im run "
              "stays under ~260 minutes.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) return RunSmoke();
  return RunFigure();
}

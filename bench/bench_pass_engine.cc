// Pass-engine throughput harness: edges/sec of one full streaming pass,
// comparing the seed's scalar path (virtual Next per edge + byte-per-node
// bitmap) against the batched engine at 1/2/4/8 threads, on an in-memory
// edge-list stream and on a CSR graph stream, for two alive sets: 90% of
// the nodes (an early peeling pass) and a seeded 30% (a later pass, where
// most streamed edges are dead).
//
// Usage: bench_pass_engine [num_edges] [num_nodes] [repetitions]
// Defaults reproduce the ISSUE acceptance setup: a 1M-edge in-memory
// stream. CI smoke-runs it with a tiny graph.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/pass_engine.h"
#include "gen/erdos_renyi.h"
#include "graph/subgraph.h"
#include "graph/undirected_graph.h"
#include "obs/metrics.h"
#include "stream/memory_stream.h"

namespace {

using namespace densest;

/// Replica of the seed implementation's NodeSet: one byte per node, branchy
/// double lookup. Kept here so the baseline stays honest after the library
/// switched to word-packed sets.
struct ByteNodeSet {
  std::vector<uint8_t> bits;
  explicit ByteNodeSet(NodeId n) : bits(n, 1) {}
  bool Contains(NodeId u) const { return bits[u] != 0; }
};

/// Replica of the seed RunUndirectedPass: one virtual Next() per edge.
UndirectedPassResult SeedScalarPass(EdgeStream& stream,
                                    const ByteNodeSet& alive,
                                    std::vector<double>& degrees) {
  std::fill(degrees.begin(), degrees.end(), 0.0);
  UndirectedPassResult out;
  stream.Reset();
  Edge e;
  while (stream.Next(&e)) {
    if (alive.Contains(e.u) && alive.Contains(e.v)) {
      degrees[e.u] += e.w;
      degrees[e.v] += e.w;
      out.weight += e.w;
      ++out.edges;
    }
  }
  return out;
}

struct Measurement {
  double edges_per_sec = 0;
  double weight = 0;  // checksum: all configurations must agree
};

template <typename PassFn>
Measurement Measure(EdgeId edges, int reps, const PassFn& pass) {
  pass();  // warm-up (allocates engine scratch outside the timed region)
  // Best-of-N: each repetition is timed individually and the fastest one
  // reported, which suppresses scheduler/steal-time noise on shared
  // machines and reflects what the code is actually capable of.
  double best_secs = 1e300;
  double weight = 0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    weight = pass();
    best_secs = std::min(best_secs, timer.ElapsedSeconds());
  }
  Measurement m;
  m.edges_per_sec =
      static_cast<double>(edges) / (best_secs > 0 ? best_secs : 1e-9);
  m.weight = weight;
  return m;
}

/// Calling-thread CPU seconds (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Thread CPU seconds `passes` calls of `pass` take.
template <typename PassFn>
double TimeTrial(const PassFn& pass, int passes) {
  const double t0 = ThreadCpuSeconds();
  for (int p = 0; p < passes; ++p) pass();
  return ThreadCpuSeconds() - t0;
}

/// Obs-overhead gate shape: metrics-on/off trial pairs, and the thread CPU
/// time one trial should take.
constexpr int kObsPairs = 400;
constexpr double kObsTrialSeconds = 2e-3;

double MedianOf(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

struct MedianCi {
  double median = 0;
  double lo = 0;  // 2.5th percentile of the bootstrap medians
  double hi = 0;  // 97.5th percentile
};

/// Median of `samples` with a percentile-bootstrap 95% confidence interval
/// (fixed seed, so a rerun on the same samples gives the same interval).
MedianCi BootstrapMedianCi(const std::vector<double>& samples) {
  constexpr int kResamples = 2000;
  Rng rng(0xb0075);
  std::vector<double> medians(kResamples);
  std::vector<double> resample(samples.size());
  for (double& m : medians) {
    for (double& x : resample) x = samples[rng.UniformU64(samples.size())];
    m = MedianOf(resample);
  }
  std::sort(medians.begin(), medians.end());
  return MedianCi{.median = MedianOf(samples),
                  .lo = medians[kResamples / 40],
                  .hi = medians[kResamples - 1 - kResamples / 40]};
}

void Report(const char* stream_name, const char* config, Measurement m,
            double baseline_eps, StatusOr<CsvWriter>& csv,
            bench::BenchJson& json) {
  std::printf("%-12s %-20s %10.2f Medges/s   %5.2fx\n", stream_name, config,
              m.edges_per_sec / 1e6, m.edges_per_sec / baseline_eps);
  if (csv.ok()) {
    csv->AddRow({std::string(stream_name), std::string(config),
                 CsvWriter::Num(m.edges_per_sec),
                 CsvWriter::Num(m.edges_per_sec / baseline_eps),
                 CsvWriter::Num(m.weight)});
  }
  const std::string key = std::string(stream_name) + "." + config;
  json.Add(key + ".edges_per_sec", m.edges_per_sec);
  json.Add(key + ".speedup_vs_seed", m.edges_per_sec / baseline_eps);
}

}  // namespace

int main(int argc, char** argv) {
  const EdgeId num_edges = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                    : 1000000ULL;
  const NodeId num_nodes = argc > 2
                               ? static_cast<NodeId>(std::strtoull(
                                     argv[2], nullptr, 10))
                               : 65536u;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 5;

  const EdgeId max_edges =
      static_cast<EdgeId>(num_nodes) * (num_nodes - 1) / 2;
  if (num_edges == 0 || num_edges > max_edges || reps < 1) {
    std::fprintf(stderr,
                 "usage: bench_pass_engine [num_edges] [num_nodes] [reps]\n"
                 "need 1 <= num_edges <= n(n-1)/2 (= %llu for n=%u), reps >= 1\n",
                 static_cast<unsigned long long>(max_edges), num_nodes);
    return 2;
  }

  bench::Banner("Pass engine",
                "Streaming-pass throughput: seed scalar vs batched vs "
                "batched+parallel");
  std::printf("graph: G(n=%u, m=%llu), %d repetitions per config\n\n",
              num_nodes, static_cast<unsigned long long>(num_edges), reps);

  EdgeList el = ErdosRenyiGnm(num_nodes, num_edges, 0xe41e);
  UndirectedGraph g = UndirectedGraph::FromEdgeList(el);

  // Alive sets. Every 10th node dead is representative of early peeling
  // passes, where nearly the whole stream survives the filter. A seeded
  // 30% of the nodes is a later pass: about 9% of the edges survive, the
  // regime the alive-first kernel is built for.
  struct AliveCase {
    const char* suffix;  // appended to the config name
    ByteNodeSet bytes;
    NodeSet words;
    void Kill(NodeId u) {
      bytes.bits[u] = 0;
      words.Remove(u);
    }
  };
  AliveCase alive_cases[] = {
      {"", ByteNodeSet(num_nodes), NodeSet(num_nodes, /*full=*/true)},
      {"@alive30", ByteNodeSet(num_nodes), NodeSet(num_nodes, /*full=*/true)}};
  Rng alive_rng(0xa1e30);
  for (NodeId u = 0; u < num_nodes; ++u) {
    if (u % 10 == 0) alive_cases[0].Kill(u);
    if (alive_rng.UniformDouble() >= 0.3) alive_cases[1].Kill(u);
  }
  const NodeSet& word_alive = alive_cases[0].words;
  std::vector<double> degrees(num_nodes);

  auto csv = bench::OpenCsv("pass_engine",
                            {"stream", "config", "edges_per_sec", "speedup",
                             "weight_checksum"});
  if (!csv.ok()) {
    std::fprintf(stderr, "warning: no CSV output: %s\n",
                 csv.status().ToString().c_str());
  }
  bench::BenchJson json("pass_engine");
  json.Add("num_edges", static_cast<double>(num_edges));
  json.Add("num_nodes", static_cast<double>(num_nodes));
  WallTimer total_timer;

  const size_t thread_counts[] = {1, 2, 4, 8};
  struct NamedStream {
    const char* name;
    EdgeStream& stream;
  };
  EdgeListStream list_stream(el);
  UndirectedGraphStream csr_stream(g);
  NamedStream streams[] = {{"edge-list", list_stream}, {"csr", csr_stream}};

  for (const NamedStream& ns : streams) {
    for (const AliveCase& alive : alive_cases) {
      char config[48];
      std::snprintf(config, sizeof(config), "seed-scalar%s", alive.suffix);
      Measurement scalar = Measure(num_edges, reps, [&] {
        return SeedScalarPass(ns.stream, alive.bytes, degrees).weight;
      });
      Report(ns.name, config, scalar, scalar.edges_per_sec, csv, json);

      for (size_t threads : thread_counts) {
        PassEngine engine(PassEngineOptions{.num_threads = threads});
        Measurement m = Measure(num_edges, reps, [&] {
          return engine.RunUndirected(ns.stream, alive.words, degrees).weight;
        });
        std::snprintf(config, sizeof(config), "engine-%zut%s", threads,
                      alive.suffix);
        Report(ns.name, config, m, scalar.edges_per_sec, csv, json);

        // Unit weights: every configuration must reproduce the seed
        // scalar pass's weight exactly.
        if (m.weight != scalar.weight) {
          std::fprintf(stderr,
                       "FAIL: weight checksum mismatch (%s, %zu threads%s)\n",
                       ns.name, threads, alive.suffix);
          return 1;
        }
      }
      std::printf("\n");
    }
  }
  // Observability overhead gate: the instrumented engine with the metrics
  // registry live (tracing idle, the shipped default) must stay within 2%
  // of the same binary with the registry disabled. The pass hot loop is
  // atomic-free — instrumentation fires per round, not per edge — so a
  // breach means someone moved a metric write into the inner loop.
  //
  // Method: metrics-on and metrics-off trials are interleaved in pairs
  // (alternating which runs first, so drift and order effects cancel) and
  // timed in thread CPU time: the 1-thread engine runs the pass on this
  // thread, and unlike wall-clock time that excludes the vCPU steal and
  // preemption of a shared host. The verdict is on the median of the
  // per-pair overheads on/off - 1: it fails when the upper bound of its
  // bootstrap 95% confidence interval reaches 2%.
  {
    PassEngine engine(PassEngineOptions{.num_threads = 1});
    auto run_pass = [&] {
      return engine.RunUndirected(list_stream, word_alive, degrees).weight;
    };
    run_pass();  // warm-up (allocates engine scratch outside the trials)
    // Passes per trial: enough for ~2 ms of CPU, so the clock's call cost
    // and timer granularity stay far below the 2% being resolved.
    const double pass_s = TimeTrial(run_pass, 1);
    const int passes = static_cast<int>(
        std::clamp(std::ceil(kObsTrialSeconds / std::max(pass_s, 1e-9)), 1.0,
                   1e6));
    std::vector<double> paired(kObsPairs);
    double on_s = 0, off_s = 0;
    for (int i = 0; i < kObsPairs; ++i) {
      double t[2];  // [0] metrics off, [1] metrics on
      for (int k = 0; k < 2; ++k) {
        const int on = (i + k) % 2;
        obs::MetricsRegistry::Get().set_enabled(on == 1);
        t[on] = TimeTrial(run_pass, passes);
      }
      off_s += t[0];
      on_s += t[1];
      paired[i] = t[1] / t[0] - 1.0;
    }
    obs::MetricsRegistry::Get().set_enabled(true);
    const MedianCi ci = BootstrapMedianCi(paired);
    const double trial_edges = static_cast<double>(num_edges) * passes;
    const double on_eps = trial_edges * kObsPairs / on_s;
    const double off_eps = trial_edges * kObsPairs / off_s;
    std::printf("obs overhead: metrics-on %.2f vs metrics-off %.2f Medges "
                "per CPU-s; median paired %+.2f%% (95%% CI %+.2f%% .. "
                "%+.2f%%; %d pairs of %d passes; gate: CI upper < 2%%)\n",
                on_eps / 1e6, off_eps / 1e6, 100 * ci.median, 100 * ci.lo,
                100 * ci.hi, kObsPairs, passes);
    json.Add("obs.metrics_on_edges_per_cpu_s", on_eps);
    json.Add("obs.metrics_off_edges_per_cpu_s", off_eps);
    json.Add("obs.overhead_frac", ci.median);
    json.Add("obs.overhead_ci_lo", ci.lo);
    json.Add("obs.overhead_ci_hi", ci.hi);
    if (ci.hi >= 0.02) {
      std::fprintf(stderr,
                   "FAIL: metrics-on pass may be >= 2%% slower than "
                   "metrics-off (median %+.2f%%, 95%% CI upper %+.2f%%)\n",
                   100 * ci.median, 100 * ci.hi);
      return 1;
    }
  }

  json.Add("total_wall_s", total_timer.ElapsedSeconds());
  Status js = json.Write();
  if (!js.ok()) {
    std::fprintf(stderr, "warning: no JSON output: %s\n",
                 js.ToString().c_str());
  }
  return 0;
}

// The multi-tenant serving tier under load: one writer replays a
// sliding-window update stream and publishes each settled answer into the
// epoch-based AnswerPlane while a QueryService reader pool answers a
// closed-loop client workload of batched density/membership/snapshot
// queries. Measures what serving costs the writer and what latency the
// readers deliver.
//
// Usage: bench_serve [smoke]
//
//   smoke    CI gate: fails (exit 1) when the writer under concurrent
//            serving (4 readers + a paced client) may sustain less than
//            80% of its standalone apply throughput, when the metrics
//            registry may cost the writer 2% or more, when any query
//            batch fails with a non-backpressure status, when any serving
//            trial serves fewer than 100 queries, or when any answer a
//            client observed is not bit-for-bit one writer publication (a
//            torn read). Emits bench_results/BENCH_serve.json either way.
//
//            Both cost gates are interleaved paired trials timed in the
//            writer thread's CPU time, which excludes the vCPU steal and
//            preemption of a shared host: each pair replays the same
//            updates once without and once with the cost (alternating
//            which runs first, so drift and order effects cancel), and
//            its cost is the throughput lost, 1 - t_without / t_with. A
//            gate fails when the upper bound of the bootstrap 95%
//            confidence interval on the median pair cost reaches its
//            threshold. The obs gate's pairs are short: two engines
//            replay the workload in lockstep, one chunk per pair. The
//            serving gate's pairs are whole replays, so a serving trial
//            carries the readers' and client's interference.
//   (none)   figure mode: serving latency percentiles and writer
//            throughput across reader-pool sizes.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "dynamic/dynamic_densest.h"
#include "dynamic/replay.h"
#include "gen/erdos_renyi.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/answer_plane.h"
#include "serve/query_service.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"

namespace {

using namespace densest;

/// The smoke contract: serving may cost the writer less than this fraction
/// of its standalone apply throughput, the metrics registry less than
/// kMaxObsCost.
constexpr double kMaxServingCost = 0.20;
constexpr double kMaxObsCost = 0.02;
/// The gate workload: a 50k-edge sliding window over 100k edges (150k
/// updates, deletions included). The obs gate replays it kObsRounds times
/// in chunks, one pair per chunk; the serving gate replays it whole,
/// kServingPairs times per side.
constexpr size_t kObsChunk = 1024;
constexpr int kObsRounds = 6;
constexpr int kServingPairs = 30;
/// Every serving trial must serve at least this many queries, so no pair
/// of the serving gate times a replay in which serving never engaged.
constexpr uint64_t kMinTrialQueries = 100;
constexpr EdgeId kGateEdges = 100000;
constexpr EdgeId kGateWindow = 50000;
constexpr size_t kReaders = 4;
constexpr double kClientQps = 2000;
constexpr size_t kClientBatch = 16;

/// One (query, result) pair a client observed; verified against the
/// writer's publication log after the writer joins.
struct Observation {
  ServeQuery query;
  ServeResult result;
};

std::vector<EdgeUpdate> MakeWorkload(EdgeId edges, EdgeId window) {
  EdgeList graph = ErdosRenyiGnm(32768, edges, 5150);
  EdgeListStream base(graph);
  SlidingWindowUpdateStream windowed(base, window);
  std::vector<EdgeUpdate> updates;
  updates.reserve(2 * edges - window);
  windowed.Reset();
  EdgeUpdate u;
  while (windowed.Next(&u)) updates.push_back(u);
  return updates;
}

/// Writer-thread CPU seconds of replaying `updates` into `engine` with no
/// serving attached.
StatusOr<double> ReplayCpuSeconds(const std::vector<EdgeUpdate>& updates,
                                  DynamicDensest& engine, NodeId num_nodes) {
  MemoryUpdateStream stream(updates, num_nodes);
  ReplayOptions opt;
  opt.query_every = 0;
  const double t0 = bench::ThreadCpuSeconds();
  auto report = ReplayUpdates(stream, engine, opt);
  const double cpu_s = bench::ThreadCpuSeconds() - t0;
  if (!report.ok()) return report.status();
  return cpu_s;
}

/// What one serving run produced.
struct ServingRun {
  double updates_per_sec = 0;
  double writer_cpu_s = 0;  // the writer thread's CPU time for the replay
  uint64_t publications = 0;
  uint64_t batches_ok = 0;
  uint64_t batches_shed = 0;
  uint64_t queries_observed = 0;
  QueryServiceStats stats;
  std::vector<Observation> observations;
  std::vector<PlaneSnapshot> writer_log;
  Answer final_answer;
};

StatusOr<ServingRun> RunServing(const std::vector<EdgeUpdate>& updates,
                                NodeId num_nodes, size_t readers,
                                bool keep_observations) {
  ServingRun run;
  auto engine = DynamicDensest::Create(num_nodes);
  if (!engine.ok()) return engine.status();
  MemoryUpdateStream stream(updates, num_nodes);

  AnswerPlane plane(num_nodes);
  if (keep_observations) plane.EnableWriterLog();
  QueryServiceOptions qopt;
  qopt.num_readers = readers;
  QueryService service(plane, qopt);

  ReplayOptions ropt;
  ropt.query_every = 0;
  ropt.publish = &plane;
  ropt.publish_every = 4096;

  std::atomic<bool> writer_done{false};
  StatusOr<ReplayReport> report = Status::Internal("writer did not run");
  std::thread writer([&] {
    const double t0 = bench::ThreadCpuSeconds();
    report = ReplayUpdates(stream, **engine, ropt);
    run.writer_cpu_s = bench::ThreadCpuSeconds() - t0;
    writer_done.store(true, std::memory_order_release);
  });

  // Closed-loop client: 70/20/10 density/membership/snapshot batches at a
  // modest paced rate, so the gate measures serving interference, not a
  // saturation stress.
  Rng rng(Mix64(7));
  std::vector<ServeQuery> queries(kClientBatch);
  std::vector<ServeResult> results;
  Status client_status = Status::OK();
  WallTimer client_wall;
  uint64_t submitted = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    for (ServeQuery& q : queries) {
      const uint64_t draw = rng.UniformU64(10);
      if (draw < 7) {
        q = ServeQuery{ServeQuery::Kind::kDensity, 0};
      } else if (draw < 9) {
        q = ServeQuery{ServeQuery::Kind::kMembership,
                       static_cast<NodeId>(rng.UniformU64(num_nodes))};
      } else {
        q = ServeQuery{ServeQuery::Kind::kSnapshot, 0};
      }
    }
    Status s = service.QueryBatch(queries, &results);
    submitted += queries.size();
    if (s.ok()) {
      ++run.batches_ok;
      run.queries_observed += results.size();
      if (keep_observations) {
        for (size_t i = 0; i < results.size(); ++i) {
          run.observations.push_back({queries[i], std::move(results[i])});
        }
      }
    } else if (s.code() == Status::Code::kUnavailable) {
      ++run.batches_shed;  // backpressure is a normal serving outcome
    } else {
      client_status = s;
      break;
    }
    const double ahead = static_cast<double>(submitted) / kClientQps -
                         client_wall.ElapsedSeconds();
    if (ahead > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
    }
  }
  writer.join();
  service.Stop();
  if (!client_status.ok()) return client_status;
  if (!report.ok()) return report.status();

  run.updates_per_sec = report->updates_per_sec;
  run.publications = plane.epoch();
  run.stats = service.stats();
  run.final_answer = plane.ReadAnswer();
  if (keep_observations) run.writer_log = plane.writer_log();
  return run;
}

/// Bit-exact doubles, the repo's snapshot-oracle convention.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameAnswer(const Answer& a, const Answer& b) {
  return SameBits(a.density, b.density) &&
         SameBits(a.upper_bound, b.upper_bound) && a.size == b.size &&
         a.certified == b.certified && a.stale == b.stale &&
         a.epoch == b.epoch;
}

/// Every answer a client observed must be one writer publication verbatim
/// — epoch 0 is the pre-first-publish default, any other epoch indexes
/// the writer log and must match bit-for-bit (including membership and
/// the full snapshot node set). Returns the number of torn observations.
uint64_t CountTornReads(const ServingRun& run) {
  uint64_t torn = 0;
  // Epoch 0 is the pre-first-publish plane: the empty graph's default
  // Answer (zero density, certified — rho* = 0 <= 0).
  const Answer empty;
  for (const Observation& ob : run.observations) {
    const Answer& got = ob.result.answer;
    if (got.epoch == 0) {
      if (!SameAnswer(got, empty)) ++torn;
      continue;
    }
    if (got.epoch > run.writer_log.size()) {
      ++torn;
      continue;
    }
    const PlaneSnapshot& want = run.writer_log[got.epoch - 1];
    Answer expect = want.answer;
    expect.epoch = got.epoch;
    if (!SameAnswer(got, expect)) {
      ++torn;
      continue;
    }
    if (ob.query.kind == ServeQuery::Kind::kMembership) {
      const bool member =
          std::binary_search(want.members.begin(), want.members.end(),
                             ob.query.node);
      if (ob.result.member != member) ++torn;
    } else if (ob.query.kind == ServeQuery::Kind::kSnapshot) {
      if (ob.result.nodes != want.members ||
          ob.result.prefix_updates != want.prefix_updates) {
        ++torn;
      }
    }
  }
  return torn;
}

/// Runs `pairs` interleaved (without, with) trial pairs — `trial(i, with)`
/// returns the writer's CPU seconds for pair i — and appends each pair's
/// cost 1 - t_without / t_with to `costs`.
template <typename TrialFn>
Status AddPairedCosts(size_t pairs, TrialFn trial, std::vector<double>& costs) {
  for (size_t i = 0; i < pairs; ++i) {
    double t[2];  // [0] without the cost, [1] with it
    for (size_t k = 0; k < 2; ++k) {
      const bool with = (i + k) % 2 == 1;
      StatusOr<double> cpu_s = trial(i, with);
      if (!cpu_s.ok()) return cpu_s.status();
      t[with] = *cpu_s;
    }
    costs.push_back(1.0 - t[0] / t[1]);
  }
  return Status::OK();
}

int RunSmoke() {
  bench::Banner("Serving tier [smoke]",
                "writer throughput under concurrent readers + torn-read gate");
  bench::BenchJson json("serve");
  bool ok = true;

  const std::vector<EdgeUpdate> updates =
      MakeWorkload(kGateEdges, kGateWindow);
  const NodeId num_nodes = 32768;
  const double num_updates = static_cast<double>(updates.size());
  auto fail = [](const Status& s) {
    std::printf("FAIL: %s\n", s.ToString().c_str());
    return 1;
  };

  // Observability overhead gate: the writer with the metrics registry live
  // (tracing idle) must cost less than 2% against the same replay with the
  // registry disabled. The per-update apply path is metric-free —
  // instrumentation diffs engine stats per batch — so a breach means a
  // metric write crept into the update loop. Each round, two fresh engines
  // replay the same chunks, one with the registry live and one with it
  // disabled, so a pair's two trials do the same work; the engines swap
  // roles between rounds, so neither's memory placement biases the gate.
  std::vector<std::vector<EdgeUpdate>> chunks;
  for (size_t at = 0; at < updates.size(); at += kObsChunk) {
    chunks.emplace_back(updates.begin() + at,
                        updates.begin() + std::min(at + kObsChunk,
                                                   updates.size()));
  }
  std::vector<double> obs_costs;
  double off_s = 0;
  for (int round = 0; round < kObsRounds; ++round) {
    std::unique_ptr<DynamicDensest> engines[2];
    for (auto& engine : engines) {
      auto created = DynamicDensest::Create(num_nodes);
      if (!created.ok()) return fail(created.status());
      engine = std::move(*created);
    }
    Status s = AddPairedCosts(
        chunks.size(),
        [&](size_t i, bool with) -> StatusOr<double> {
          obs::MetricsRegistry::Get().set_enabled(with);
          StatusOr<double> cpu_s = ReplayCpuSeconds(
              chunks[i], *engines[(round + with) % 2], num_nodes);
          if (cpu_s.ok() && !with) off_s += *cpu_s;
          return cpu_s;
        },
        obs_costs);
    if (!s.ok()) return fail(s);
  }
  obs::MetricsRegistry::Get().set_enabled(true);
  const bench::MedianCi obs = bench::BootstrapMedianCi(obs_costs);
  std::printf("obs overhead: metrics-off writer %.2fM updates per CPU-s; "
              "median paired cost %+.2f%% (95%% CI %+.2f%% .. %+.2f%%; %zu "
              "pairs of %zu updates; gate: CI upper < %.0f%%)\n",
              kObsRounds * num_updates / off_s / 1e6, 100 * obs.median,
              100 * obs.lo, 100 * obs.hi, obs_costs.size(), kObsChunk,
              100 * kMaxObsCost);
  json.Add("obs.metrics_off_updates_per_cpu_s",
           kObsRounds * num_updates / off_s);
  json.Add("obs.overhead_frac", obs.median);
  json.Add("obs.overhead_ci_lo", obs.lo);
  json.Add("obs.overhead_ci_hi", obs.hi);
  if (obs.hi >= kMaxObsCost) {
    std::printf("FAIL: the metrics-on writer may be %.0f%% or more slower "
                "than metrics-off (median %+.2f%%, 95%% CI upper %+.2f%%)\n",
                100 * kMaxObsCost, 100 * obs.median, 100 * obs.hi);
    ok = false;
  }

  // Record spans for the serving runs below; the timeline rides out as a
  // CI artifact next to the metrics exposition.
  obs::TraceRecorder::Get().Start();

  // Serving-cost gate: standalone replays paired with replays under
  // concurrent serving. Every serving trial's observations get the
  // torn-read audit; the last trial's service numbers are reported.
  double standalone_s = 0;
  double serving_s = 0;
  uint64_t torn = 0;
  uint64_t observations = 0;
  uint64_t queries_served = 0;
  uint64_t min_trial_queries = UINT64_MAX;
  uint64_t batches_ok = 0;
  uint64_t batches_shed = 0;
  ServingRun last;
  std::vector<double> serving_costs;
  Status serving_status = AddPairedCosts(
      kServingPairs,
      [&](size_t, bool with) -> StatusOr<double> {
        if (!with) {
          auto engine = DynamicDensest::Create(num_nodes);
          if (!engine.ok()) return engine.status();
          StatusOr<double> cpu_s = ReplayCpuSeconds(updates, **engine,
                                                    num_nodes);
          if (cpu_s.ok()) standalone_s += *cpu_s;
          return cpu_s;
        }
        StatusOr<ServingRun> r = RunServing(updates, num_nodes, kReaders,
                                            /*keep_observations=*/true);
        if (!r.ok()) return r.status();
        torn += CountTornReads(*r);
        observations += r->observations.size();
        queries_served += r->stats.queries_served;
        min_trial_queries =
            std::min(min_trial_queries, r->stats.queries_served);
        batches_ok += r->batches_ok;
        batches_shed += r->batches_shed;
        serving_s += r->writer_cpu_s;
        last = std::move(*r);
        return last.writer_cpu_s;
      },
      serving_costs);
  if (!serving_status.ok()) return fail(serving_status);
  const bench::MedianCi serving_cost = bench::BootstrapMedianCi(serving_costs);
  const double pair_updates = num_updates * kServingPairs;
  json.Add("standalone_updates_per_cpu_s", pair_updates / standalone_s);
  json.Add("serving_updates_per_cpu_s", pair_updates / serving_s);
  json.Add("serving_cost_frac", serving_cost.median);
  json.Add("serving_cost_ci_lo", serving_cost.lo);
  json.Add("serving_cost_ci_hi", serving_cost.hi);
  json.Add("publications", static_cast<double>(last.publications));
  json.Add("queries_served", static_cast<double>(queries_served));
  json.Add("min_trial_queries", static_cast<double>(min_trial_queries));
  json.Add("batches_shed", static_cast<double>(batches_shed));
  json.Add("latency_p50_us", last.stats.latency_p50_us);
  json.Add("latency_p99_us", last.stats.latency_p99_us);
  std::printf(
      "serving writer (%zu readers, %.0f qps client): standalone %.2fM vs "
      "serving %.2fM updates per CPU-s; median paired cost %+.2f%% (95%% CI "
      "%+.2f%% .. %+.2f%%; %d pairs; gate: CI upper < %.0f%%)\n",
      kReaders, kClientQps, pair_updates / standalone_s / 1e6,
      pair_updates / serving_s / 1e6, 100 * serving_cost.median,
      100 * serving_cost.lo, 100 * serving_cost.hi, kServingPairs,
      100 * kMaxServingCost);
  std::printf(
      "client: %llu batches ok, %llu shed; service: %llu queries (fewest "
      "in one trial: %llu); last trial %llu publications, p50=%.1fus "
      "p99=%.1fus\n",
      static_cast<unsigned long long>(batches_ok),
      static_cast<unsigned long long>(batches_shed),
      static_cast<unsigned long long>(queries_served),
      static_cast<unsigned long long>(min_trial_queries),
      static_cast<unsigned long long>(last.publications),
      last.stats.latency_p50_us, last.stats.latency_p99_us);
  if (serving_cost.hi >= kMaxServingCost) {
    std::printf("FAIL: serving may cost the writer %.0f%% or more (median "
                "%+.2f%%, 95%% CI upper %+.2f%%)\n",
                100 * kMaxServingCost, 100 * serving_cost.median,
                100 * serving_cost.hi);
    ok = false;
  }
  if (min_trial_queries < kMinTrialQueries) {
    std::printf("FAIL: a serving trial served only %llu queries (floor "
                "%llu); serving never engaged\n",
                static_cast<unsigned long long>(min_trial_queries),
                static_cast<unsigned long long>(kMinTrialQueries));
    ok = false;
  }

  json.Add("observations", static_cast<double>(observations));
  json.Add("torn_reads", static_cast<double>(torn));
  std::printf("torn-read audit: %llu observations over %d serving trials: "
              "%llu torn\n",
              static_cast<unsigned long long>(observations), kServingPairs,
              static_cast<unsigned long long>(torn));
  if (torn > 0) {
    std::printf("FAIL: observed answers diverged from the writer log\n");
    ok = false;
  }
  if (last.final_answer.certified &&
      last.final_answer.density > last.final_answer.upper_bound) {
    std::printf("FAIL: final served answer outside its certified band\n");
    ok = false;
  }

  json.Add("serve_ok", ok ? 1 : 0);
  if (Status js = json.Write(); !js.ok()) {  // also creates bench_results/
    std::printf("warning: %s\n", js.ToString().c_str());
  }

  // The smoke run's own observability artifacts: the full exposition and
  // the chrome://tracing timeline, validated by tools/check_obs.py in CI.
  obs::TraceRecorder::Get().Stop();
  if (Status w = obs::WriteMetricsFile("bench_results/BENCH_serve_metrics.prom");
      w.ok()) {
    std::printf("metrics written to bench_results/BENCH_serve_metrics.prom\n");
  } else {
    std::printf("warning: %s\n", w.ToString().c_str());
  }
  if (Status w = obs::TraceRecorder::Get().DrainToJsonFile(
          "bench_results/BENCH_serve_trace.json");
      w.ok()) {
    std::printf("trace written to bench_results/BENCH_serve_trace.json\n");
  } else {
    std::printf("warning: %s\n", w.ToString().c_str());
  }
  std::printf("%s\n", ok ? "SMOKE OK" : "SMOKE FAILED");
  return ok ? 0 : 1;
}

int RunFigure() {
  bench::Banner("Serving tier",
                "writer throughput and query latency across reader pools");
  auto csv = bench::OpenCsv(
      "serve", {"readers", "updates_per_sec", "publications",
                "queries_served", "latency_p50_us", "latency_p99_us"});
  const std::vector<EdgeUpdate> updates = MakeWorkload(500000, 250000);
  const NodeId num_nodes = 32768;
  for (const size_t readers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    StatusOr<ServingRun> run =
        RunServing(updates, num_nodes, readers, /*keep_observations=*/false);
    if (!run.ok()) {
      std::printf("FAIL: %s\n", run.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "readers=%zu  %6.2fM updates/s  %llu publications  %llu queries  "
        "p50=%.1fus p99=%.1fus\n",
        readers, run->updates_per_sec / 1e6,
        static_cast<unsigned long long>(run->publications),
        static_cast<unsigned long long>(run->stats.queries_served),
        run->stats.latency_p50_us, run->stats.latency_p99_us);
    if (csv.ok()) {
      csv->AddRow({std::to_string(readers),
                   CsvWriter::Num(run->updates_per_sec),
                   std::to_string(run->publications),
                   std::to_string(run->stats.queries_served),
                   CsvWriter::Num(run->stats.latency_p50_us),
                   CsvWriter::Num(run->stats.latency_p99_us)});
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) return RunSmoke();
  return RunFigure();
}

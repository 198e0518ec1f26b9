#include "cli/commands.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/enumerate.h"
#include "sketch/sketched_algorithm1.h"
#include "flow/goldberg.h"
#include "gen/chung_lu.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "graph/stats.h"
#include "io/edge_list_io.h"
#include "dynamic/chaos.h"
#include "dynamic/dynamic_densest.h"
#include "dynamic/replay.h"
#include "dynamic/snapshot.h"
#include "mapreduce/mr_densest.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/answer_plane.h"
#include "serve/query_service.h"
#include "stream/file_stream.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"

namespace densest {

namespace {

/// One-line non-zero metrics summary for the --stats-every hooks.
std::string StatsSummaryLine() {
  return obs::MetricsExporter::SummaryLine(
      obs::MetricsRegistry::Get().Collect());
}

/// Loads edges from a text ("u v [w]") or binary (.bin) edge file.
StatusOr<EdgeList> LoadEdges(const std::string& path) {
  if (!path.ends_with(".bin")) return ReadEdgeListText(path);
  auto stream = BinaryFileEdgeStream::Open(path);
  if (!stream.ok()) return stream.status();
  EdgeList edges((*stream)->num_nodes());
  Edge e;
  (*stream)->Reset();
  while ((*stream)->Next(&e)) edges.Add(e.u, e.v, e.w);
  // The drain above ends silently on a read error or a truncated file;
  // loading a partial edge set would yield a plausible-looking density.
  if (Status io = (*stream)->status(); !io.ok()) return io;
  edges.set_num_nodes((*stream)->num_nodes());
  return edges;
}

/// Loads a graph file as a simple undirected CSR graph.
StatusOr<UndirectedGraph> LoadUndirectedGraph(const std::string& path) {
  StatusOr<EdgeList> edges = LoadEdges(path);
  if (!edges.ok()) return edges.status();
  GraphBuilder builder;
  builder.ReserveNodes(edges->num_nodes());
  for (const Edge& e : edges->edges()) builder.Add(e.u, e.v, e.w);
  return builder.BuildUndirected();
}

/// A graph file as an EdgeStream: a .bin file streams straight from disk
/// without materializing the edge set; a text file is loaded and streamed
/// from memory.
struct EdgeInput {
  std::unique_ptr<BinaryFileEdgeStream> file;
  std::unique_ptr<EdgeList> edges;
  std::unique_ptr<EdgeListStream> memory;

  EdgeStream& stream() {
    return file ? static_cast<EdgeStream&>(*file) : *memory;
  }
};

StatusOr<EdgeInput> OpenEdgeInput(const std::string& path) {
  EdgeInput input;
  if (path.ends_with(".bin")) {
    auto opened = BinaryFileEdgeStream::Open(path);
    if (!opened.ok()) return opened.status();
    input.file = std::move(*opened);
    return input;
  }
  StatusOr<EdgeList> loaded = ReadEdgeListText(path);
  if (!loaded.ok()) return loaded.status();
  input.edges = std::make_unique<EdgeList>(std::move(*loaded));
  input.memory = std::make_unique<EdgeListStream>(*input.edges);
  return input;
}

/// The graph replayed as timestamped insertions; with --window > 0 a
/// sliding-window deleter keeps only the newest edges live.
std::unique_ptr<UpdateStream> ReplayStream(EdgeStream& stream,
                                           const Args& args) {
  const auto window = static_cast<uint64_t>(args.Int("window"));
  if (window == 0) return std::make_unique<InsertReplayUpdateStream>(stream);
  return std::make_unique<SlidingWindowUpdateStream>(
      stream, window, static_cast<uint64_t>(args.Int("evict-batch")));
}

/// Wires --stats-every to a metrics summary line on `out`.
void SetStatsHook(const Args& args, std::ostream& out, ReplayOptions& opt) {
  opt.stats_every = static_cast<uint64_t>(args.Int("stats-every"));
  if (opt.stats_every > 0) {
    opt.stats_hook = [&out](uint64_t count) {
      out << "[stats @" << count << "] " << StatsSummaryLine() << "\n";
    };
  }
}

void PrintIoRetries(const IoRetryStats& r, std::ostream& out) {
  if (r.retries > 0 || r.exhausted > 0) {
    out << "io retries: " << r.retries << " (" << r.healed << " healed, "
        << r.exhausted << " exhausted)\n";
  }
}

Status WriteNodes(const std::string& path, const std::vector<NodeId>& nodes) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  for (NodeId u : nodes) out << u << '\n';
  return Status::OK();
}

void PrintUndirectedTrace(const UndirectedDensestResult& r,
                          std::ostream& out) {
  out << "pass  nodes  edges  rho  threshold  removed\n";
  for (const PassSnapshot& s : r.trace) {
    out << s.pass << "  " << s.nodes << "  " << s.edges << "  " << s.density
        << "  " << s.threshold << "  " << s.removed << "\n";
  }
}

}  // namespace

Status CmdStats(const Args& args, std::ostream& out) {
  StatusOr<EdgeList> edges = LoadEdges(args.positional()[0]);
  if (!edges.ok()) return edges.status();

  if (args.Bool("directed")) {
    DirectedGraph g = DirectedGraph::FromEdgeList(*edges);
    out << FormatStats(ComputeStats(g)) << "\n";
  } else {
    UndirectedGraph g = UndirectedGraph::FromEdgeList(*edges);
    GraphStats s = ComputeStats(g);
    out << FormatStats(s) << "\n";
    out << "power-law exponent estimate: " << EstimatePowerLawExponent(g)
        << "\n";
  }
  return Status::OK();
}

Status CmdUndirected(const Args& args, std::ostream& out) {
  const double eps = args.Double("eps");
  const int64_t min_size = args.Int("min-size");
  const bool trace = args.Bool("trace");
  StatusOr<UndirectedGraph> graph = LoadUndirectedGraph(args.positional()[0]);
  if (!graph.ok()) return graph.status();

  UndirectedDensestResult result;
  if (min_size > 0) {
    Algorithm2Options opt;
    opt.epsilon = eps;
    opt.min_size = static_cast<NodeId>(min_size);
    opt.record_trace = trace;
    StatusOr<UndirectedDensestResult> r = RunAlgorithm2(*graph, opt);
    if (!r.ok()) return r.status();
    result = std::move(*r);
    out << "algorithm 2 (min size " << min_size << "): ";
  } else if (args.Int("sketch-buckets") > 0) {
    Algorithm1Options opt;
    opt.epsilon = eps;
    opt.record_trace = trace;
    UndirectedGraphStream stream(*graph);
    CountSketchOptions sk;
    sk.buckets = static_cast<int>(args.Int("sketch-buckets"));
    sk.tables = static_cast<int>(args.Int("sketch-tables"));
    StatusOr<SketchedResult> r =
        RunSketchedAlgorithm1(stream, sk, /*sketch_seed=*/0x5eed, opt);
    if (!r.ok()) return r.status();
    out << "sketched algorithm 1 (memory ratio " << r->memory_ratio
        << "): ";
    result = std::move(r->result);
  } else {
    Algorithm1Options opt;
    opt.epsilon = eps;
    opt.record_trace = trace;
    opt.compact_below_edges = static_cast<EdgeId>(args.Int("compact-below"));
    StatusOr<UndirectedDensestResult> r = RunAlgorithm1(*graph, opt);
    if (!r.ok()) return r.status();
    result = std::move(*r);
    out << "algorithm 1: ";
  }
  out << Summarize(result) << "\n";
  if (trace) PrintUndirectedTrace(result, out);
  if (const std::string& output = args.String("output"); !output.empty()) {
    return WriteNodes(output, result.nodes);
  }
  return Status::OK();
}

Status CmdDirected(const Args& args, std::ostream& out) {
  const double eps = args.Double("eps");
  const double c = args.Double("c");
  StatusOr<EdgeList> edges = LoadEdges(args.positional()[0]);
  if (!edges.ok()) return edges.status();
  DirectedGraph graph = DirectedGraph::FromEdgeList(*edges);

  if (c > 0) {
    Algorithm3Options opt;
    opt.c = c;
    opt.epsilon = eps;
    opt.record_trace = args.Bool("trace");
    StatusOr<DirectedDensestResult> r = RunAlgorithm3(graph, opt);
    if (!r.ok()) return r.status();
    out << "algorithm 3 (c=" << c << "): " << Summarize(*r) << "\n";
    if (opt.record_trace) {
      out << "pass  |S|  |T|  |E(S,T)|  rho  peel\n";
      for (const DirectedPassSnapshot& s : r->trace) {
        out << s.pass << "  " << s.s_size << "  " << s.t_size << "  "
            << s.weight << "  " << s.density << "  "
            << (s.removed_from_s ? "S" : "T") << "\n";
      }
    }
    return Status::OK();
  }

  CSearchOptions opt;
  opt.delta = args.Double("delta");
  opt.epsilon = eps;
  StatusOr<CSearchResult> r = RunCSearch(graph, opt);
  if (!r.ok()) return r.status();
  out << "c-search over " << r->sweep.size() << " ratios (delta=" << opt.delta
      << "): best " << Summarize(r->best) << "\n";
  return Status::OK();
}

Status CmdMapReduce(const Args& args, std::ostream& out) {
  const bool trace = args.Bool("trace");
  const auto spill = static_cast<uint64_t>(args.Int("spill-budget"));
  StatusOr<EdgeInput> input = OpenEdgeInput(args.positional()[0]);
  if (!input.ok()) return input.status();
  EdgeStream& stream = input->stream();

  CostModel model;
  model.num_mappers = static_cast<int>(args.Int("mappers"));
  model.num_reducers = static_cast<int>(args.Int("reducers"));
  MapReduceEnv env(model);

  if (args.Bool("directed")) {
    MrDirectedOptions opt;
    opt.c = args.Double("c");
    opt.epsilon = args.Double("eps");
    opt.record_trace = trace;
    opt.spill_budget_bytes = spill;
    StatusOr<MrDirectedResult> r = RunMrDensestDirected(env, stream, opt);
    if (!r.ok()) return r.status();
    out << "mapreduce algorithm 3 (c=" << opt.c << "): "
        << Summarize(r->result) << "\n";
    out << "input scans: " << r->input_scans
        << "  cluster totals: " << r->totals.ToString() << "\n";
    if (trace) {
      out << "pass  |S|  |T|  |E(S,T)|  rho  sim_sec\n";
      for (size_t i = 0; i < r->result.trace.size(); ++i) {
        const DirectedPassSnapshot& s = r->result.trace[i];
        out << s.pass << "  " << s.s_size << "  " << s.t_size << "  "
            << s.weight << "  " << s.density << "  " << r->pass_seconds[i]
            << "\n";
      }
    }
    return Status::OK();
  }

  MrDensestOptions opt;
  opt.epsilon = args.Double("eps");
  opt.record_trace = trace;
  opt.spill_budget_bytes = spill;
  StatusOr<MrDensestResult> r = RunMrDensestUndirected(env, stream, opt);
  if (!r.ok()) return r.status();
  out << "mapreduce algorithm 1: " << Summarize(r->result) << "\n";
  out << "input scans: " << r->input_scans
      << "  cluster totals: " << r->totals.ToString() << "\n";
  if (trace) {
    out << "pass  nodes  edges  rho  sim_sec\n";
    for (size_t i = 0; i < r->result.trace.size(); ++i) {
      const PassSnapshot& s = r->result.trace[i];
      out << s.pass << "  " << s.nodes << "  " << s.edges << "  "
          << s.density << "  " << r->pass_seconds[i] << "\n";
    }
  }
  return Status::OK();
}

Status CmdDynamic(const Args& args, std::ostream& out) {
  const double eps = args.Double("eps");
  const int64_t window = args.Int("window");
  const int64_t checkpoint_every = args.Int("checkpoint-every");
  const std::string& snapshot_path = args.String("snapshot");
  const bool resume = args.Bool("resume");
  const double deadline_ms = args.Double("deadline-ms");
  if (args.Bool("check-invariants") && checkpoint_every == 0) {
    return Status::InvalidArgument(
        "--check-invariants needs --checkpoint-every=N");
  }
  if (args.Int("snapshot-every") > 0 && snapshot_path.empty()) {
    return Status::InvalidArgument("--snapshot-every needs --snapshot=PATH");
  }
  if (resume && snapshot_path.empty()) {
    return Status::InvalidArgument("--resume needs --snapshot=PATH");
  }
  StatusOr<EdgeInput> input = OpenEdgeInput(args.positional()[0]);
  if (!input.ok()) return input.status();
  if (input->file) {
    RetryPolicy retry;
    retry.max_attempts = static_cast<int>(args.Int("retry-attempts"));
    retry.base_delay_ms = args.Double("retry-base-ms");
    input->file->set_retry_policy(retry);
  }
  EdgeStream& stream = input->stream();

  DynamicDensestOptions opt;
  opt.epsilon = eps;
  opt.window_radius = static_cast<uint32_t>(args.Int("radius"));
  opt.trim_hysteresis = static_cast<uint32_t>(args.Int("trim-hysteresis"));
  opt.engine_options.num_threads = static_cast<size_t>(args.Int("threads"));
  opt.recompute_deadline_ms = deadline_ms;
  opt.recompute_rearm_updates =
      static_cast<uint32_t>(args.Int("rearm-updates"));
  const std::string& fallback = args.String("fallback");
  opt.fallback = fallback == "recompute" ? DynamicFallback::kRecompute
                 : fallback == "rebuild" ? DynamicFallback::kRebuildOnly
                                         : DynamicFallback::kNever;
  ReplayOptions replay_opt;
  replay_opt.target_updates_per_sec = args.Double("rate");
  replay_opt.query_every = static_cast<uint64_t>(args.Int("query-every"));
  replay_opt.checkpoint_every = static_cast<uint64_t>(checkpoint_every);
  replay_opt.snapshot_every =
      static_cast<uint64_t>(args.Int("snapshot-every"));
  replay_opt.snapshot_path = snapshot_path;
  replay_opt.check_invariants = args.Bool("check-invariants");
  SetStatsHook(args, out, replay_opt);
  replay_opt.checkpoint_mode = args.String("checkpoints") == "exact"
                                   ? CheckpointMode::kExactFlow
                                   : CheckpointMode::kBatchAlgorithm1;

  // --resume: restore the engine and stream position from the snapshot. A
  // missing/torn/corrupted snapshot degrades to a full replay from scratch
  // — logged, never silently served — so restart is always safe.
  std::unique_ptr<DynamicDensest> engine;
  if (resume) {
    StatusOr<RestoredEngine> restored = ReadSnapshot(snapshot_path, opt);
    if (restored.ok()) {
      engine = std::move(restored->engine);
      replay_opt.skip_updates = restored->cursor;
      out << "resumed from " << snapshot_path << " at update "
          << restored->cursor << "\n";
    } else {
      out << "snapshot unusable (" << restored.status().ToString()
          << "); degrading to full replay from scratch\n";
    }
  }
  if (engine == nullptr) {
    StatusOr<std::unique_ptr<DynamicDensest>> created =
        DynamicDensest::Create(stream.num_nodes(), opt);
    if (!created.ok()) return created.status();
    engine = std::move(*created);
  }

  std::unique_ptr<UpdateStream> updates = ReplayStream(stream, args);
  StatusOr<ReplayReport> report = ReplayUpdates(*updates, *engine, replay_opt);
  if (!report.ok()) return report.status();

  out << "dynamic densest (eps=" << eps
      << (window > 0 ? ", sliding window " + std::to_string(window)
                     : std::string(", insert-only"))
      << "): rho=" << report->final_density;
  if (report->final_certified) {
    out << " certified rho* < " << report->final_upper_bound << " (band "
        << engine->ApproxBand() << "x)\n";
  } else {
    // Only possible under --fallback=never: the window degraded and the
    // engine is serving best-effort answers without a certificate.
    out << " UNCERTIFIED (window degraded; --fallback=never)\n";
  }
  out << "updates: " << report->updates << " ("
      << report->engine_stats.inserts << " ins, "
      << report->engine_stats.deletes << " del, "
      << report->engine_stats.ignored << " ignored) at "
      << static_cast<uint64_t>(report->updates_per_sec) << "/s\n";
  out << "queries: " << report->queries
      << "  p50=" << report->query_latency_us.Quantile(0.5)
      << "us  p99=" << report->query_latency_us.Quantile(0.99) << "us\n";
  out << "maintenance: " << report->engine_stats.level_moves
      << " level moves, " << report->engine_stats.recomputes
      << " recomputes, " << report->engine_stats.window_moves
      << " window moves, " << report->engine_stats.recomputes_avoided
      << " trims suppressed\n";
  if (report->engine_stats.recomputes_cancelled > 0 ||
      report->engine_stats.stale_answers_served > 0) {
    out << "overload: " << report->engine_stats.recomputes_cancelled
        << " recomputes cancelled by the " << deadline_ms
        << "ms deadline, " << report->engine_stats.stale_answers_served
        << " queries served the widened stale band\n";
  }
  if (report->snapshots_written > 0 || report->snapshots_failed > 0) {
    out << "snapshots: " << report->snapshots_written << " written in "
        << report->snapshot_seconds << "s";
    if (report->snapshots_failed > 0) {
      out << "  " << report->snapshots_failed << " FAILED (last: "
          << report->last_snapshot_error << ")";
    }
    out << "\n";
  }
  PrintIoRetries(updates->io_retry_stats(), out);
  if (!report->checkpoints.empty()) {
    out << "checkpoints: " << report->checkpoints.size()
        << "  band=" << (report->band_ok ? "OK" : "VIOLATED")
        << "  max error=" << report->max_observed_error << "\n";
  }
  if (!report->band_ok) {
    return Status::Internal("maintained density left the certified band");
  }
  return Status::OK();
}

namespace {

/// Parses "--query-mix=D,M,S[,T]": non-negative weights (density,
/// membership, snapshot, and optionally stats) summing to something
/// positive. The stats weight defaults to 0 so existing three-field
/// invocations keep their exact workload.
StatusOr<std::array<uint64_t, 4>> ParseQueryMix(const std::string& mix) {
  std::array<uint64_t, 4> w{};
  std::istringstream in(mix);
  std::string field;
  size_t i = 0;
  while (std::getline(in, field, ',')) {
    if (i >= 4 || field.empty() ||
        field.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("bad --query-mix field: '" + field + "'");
    }
    w[i++] = std::stoull(field);
  }
  if ((i != 3 && i != 4) || w[0] + w[1] + w[2] + w[3] == 0) {
    return Status::InvalidArgument(
        "--query-mix needs three or four weights with a positive sum, "
        "e.g. 80,15,5 or 80,14,5,1");
  }
  return w;
}

}  // namespace

Status CmdServe(const Args& args, std::ostream& out) {
  const double eps = args.Double("eps");
  const int64_t window = args.Int("window");
  const int64_t readers = args.Int("readers");
  const double qps = args.Double("qps");
  const double deadline_ms = args.Double("deadline-ms");
  StatusOr<std::array<uint64_t, 4>> mix =
      ParseQueryMix(args.String("query-mix"));
  if (!mix.ok()) return mix.status();
  StatusOr<EdgeInput> input = OpenEdgeInput(args.positional()[0]);
  if (!input.ok()) return input.status();
  EdgeStream& stream = input->stream();
  const NodeId num_nodes = stream.num_nodes();

  DynamicDensestOptions opt;
  opt.epsilon = eps;
  StatusOr<std::unique_ptr<DynamicDensest>> engine =
      DynamicDensest::Create(num_nodes, opt);
  if (!engine.ok()) return engine.status();

  std::unique_ptr<UpdateStream> updates = ReplayStream(stream, args);

  // The serving tier: the replay thread is the plane's single writer; the
  // reader pool answers the closed-loop client workload below without
  // ever touching the writer.
  AnswerPlane plane(num_nodes);
  QueryServiceOptions qopt;
  qopt.num_readers = static_cast<size_t>(readers);
  qopt.queue_capacity = static_cast<size_t>(args.Int("queue-capacity"));
  QueryService service(plane, qopt);

  CancelToken writer_cancel;
  ReplayOptions replay_opt;
  replay_opt.target_updates_per_sec = args.Double("rate");
  replay_opt.query_every = 0;  // queries come through the service instead
  replay_opt.publish = &plane;
  replay_opt.publish_every = static_cast<uint64_t>(args.Int("publish-every"));
  replay_opt.cancel = &writer_cancel;
  // The hook runs on the writer thread; `out` has no other writer until
  // the join.
  SetStatsHook(args, out, replay_opt);

  std::atomic<bool> writer_done{false};
  StatusOr<ReplayReport> report = Status::Internal("writer did not run");
  std::thread writer([&] {
    report = ReplayUpdates(*updates, **engine, replay_opt);
    writer_done.store(true, std::memory_order_release);
  });

  // Closed-loop client: submit seeded query batches at --qps until the
  // writer drains the stream. Sheds and expiries are normal serving
  // outcomes and are tallied, not fatal.
  Rng rng(Mix64(static_cast<uint64_t>(args.Int("seed"))));
  const std::array<uint64_t, 4>& w = *mix;
  const uint64_t mix_total = w[0] + w[1] + w[2] + w[3];
  std::vector<ServeQuery> queries(static_cast<size_t>(args.Int("batch")));
  std::vector<ServeResult> results;
  uint64_t batches_ok = 0, batches_shed = 0, batches_expired = 0;
  uint64_t queries_submitted = 0;
  Status client_status = Status::OK();
  WallTimer client_wall;
  while (!writer_done.load(std::memory_order_acquire)) {
    for (ServeQuery& q : queries) {
      const uint64_t draw = rng.UniformU64(mix_total);
      if (draw < w[0]) {
        q = ServeQuery{ServeQuery::Kind::kDensity, 0};
      } else if (draw < w[0] + w[1]) {
        q = ServeQuery{ServeQuery::Kind::kMembership,
                       static_cast<NodeId>(rng.UniformU64(
                           num_nodes > 0 ? num_nodes : 1))};
      } else if (draw < w[0] + w[1] + w[2]) {
        q = ServeQuery{ServeQuery::Kind::kSnapshot, 0};
      } else {
        q = ServeQuery{ServeQuery::Kind::kStats, 0};
      }
    }
    Status s;
    if (deadline_ms > 0) {
      CancelToken deadline = CancelToken::WithDeadlineAfterMs(deadline_ms);
      s = service.QueryBatch(queries, &results, &deadline);
    } else {
      s = service.QueryBatch(queries, &results);
    }
    queries_submitted += queries.size();
    if (s.ok()) {
      ++batches_ok;
    } else if (s.code() == Status::Code::kUnavailable) {
      ++batches_shed;
    } else if (s.code() == Status::Code::kDeadlineExceeded ||
               s.code() == Status::Code::kCancelled) {
      ++batches_expired;
    } else {
      client_status = s;  // a real serving bug: stop the writer and fail
      writer_cancel.Cancel();
      break;
    }
    if (qps > 0) {
      const double ahead =
          static_cast<double>(queries_submitted) / qps -
          client_wall.ElapsedSeconds();
      if (ahead > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
      }
    }
  }
  writer.join();
  service.Stop();
  if (!client_status.ok()) return client_status;
  if (!report.ok()) return report.status();

  const Answer final_answer = plane.ReadAnswer();
  out << "serve (eps=" << eps
      << (window > 0 ? ", sliding window " + std::to_string(window)
                     : std::string(", insert-only"))
      << ", readers=" << readers << "): rho=" << final_answer.density;
  if (final_answer.certified) {
    out << " certified rho* < " << final_answer.upper_bound;
  } else {
    out << " UNCERTIFIED";
  }
  out << " at epoch " << final_answer.epoch << "\n";
  out << "writer: " << report->updates << " updates at "
      << static_cast<uint64_t>(report->updates_per_sec) << "/s, "
      << plane.epoch() << " publications\n";
  out << "client: " << batches_ok << " batches ok, " << batches_shed
      << " shed, " << batches_expired << " expired ("
      << queries_submitted << " queries submitted)\n";
  const QueryServiceStats sstats = service.stats();
  out << "service: " << sstats.queries_served << " queries served  p50="
      << sstats.latency_p50_us << "us  p99=" << sstats.latency_p99_us
      << "us  mean=" << sstats.latency_mean_us << "us\n";
  PrintIoRetries(updates->io_retry_stats(), out);  // the writer's reads
  return Status::OK();
}

Status CmdChaos(const Args& args, std::ostream& out) {
  ChaosOptions opt;
  opt.schedules = static_cast<uint32_t>(args.Int("schedules"));
  opt.seed = static_cast<uint64_t>(args.Int("seed"));
  opt.nodes = static_cast<NodeId>(args.Int("nodes"));
  opt.edges = static_cast<EdgeId>(args.Int("edges"));
  opt.window = static_cast<uint64_t>(args.Int("window"));
  opt.epsilon = args.Double("eps");
  opt.checkpoint_every = static_cast<uint64_t>(args.Int("checkpoint-every"));
  opt.snapshot_every = static_cast<uint64_t>(args.Int("snapshot-every"));
  opt.max_faults = static_cast<uint32_t>(args.Int("max-faults"));
  opt.batch_size = static_cast<size_t>(args.Int("batch-size"));
  opt.reader_threads = static_cast<uint32_t>(args.Int("readers"));
  opt.scratch_dir = args.String("scratch");
  if (args.Bool("verbose")) opt.log = &out;
  opt.stats_every = static_cast<uint64_t>(args.Int("stats-every"));
  if (opt.stats_every > 0) {
    opt.stats_hook = [&out](uint32_t done) {
      out << "[stats after " << done << " schedules] " << StatsSummaryLine()
          << "\n";
    };
  }
  if (args.Bool("smoke")) {
    // The CI gate: a fixed seed so every run checks the identical fault
    // schedules, and never fewer than the contract's 20.
    opt.seed = 20120817;
    if (opt.schedules < 20) opt.schedules = 20;
  }

  if (!Failpoints::compiled_in()) {
    out << "failpoints compiled out (-DDENSEST_FAILPOINTS=OFF): "
           "running a fault-free soak (snapshots, band checks, audits)\n";
  }
  StatusOr<ChaosReport> report = RunChaos(opt);
  if (!report.ok()) return report.status();
  out << "chaos: " << report->schedules << " schedules survived: "
      << report->total_faults << " faults injected, " << report->total_kills
      << " kills recovered (" << report->total_full_rebuilds
      << " full rebuilds), " << report->total_band_checks << " band checks, "
      << report->total_invariant_audits << " invariant audits; every final "
      << "state bit-identical to its fault-free reference\n";
  if (report->total_reader_snapshots > 0) {
    out << "serving: " << report->total_reader_snapshots
        << " concurrent reader snapshots verified untorn against the "
        << "writer log and re-derived from their workload prefixes\n";
  }
  return Status::OK();
}

Status CmdExact(const Args& args, std::ostream& out) {
  StatusOr<UndirectedGraph> graph = LoadUndirectedGraph(args.positional()[0]);
  if (!graph.ok()) return graph.status();

  StatusOr<ExactDensestResult> r = ExactDensestSubgraph(*graph);
  if (!r.ok()) return r.status();
  out << "exact: rho*=" << r->density << " |S*|=" << r->nodes.size()
      << " (" << r->flow_iterations << " max-flow solves)\n";
  return Status::OK();
}

Status CmdEnumerate(const Args& args, std::ostream& out) {
  StatusOr<UndirectedGraph> graph = LoadUndirectedGraph(args.positional()[0]);
  if (!graph.ok()) return graph.status();

  EnumerateOptions opt;
  opt.epsilon = args.Double("eps");
  opt.max_subgraphs = static_cast<size_t>(args.Int("count"));
  opt.min_density = args.Double("min-density");
  StatusOr<std::vector<UndirectedDensestResult>> subs =
      EnumerateDenseSubgraphs(*graph, opt);
  if (!subs.ok()) return subs.status();
  out << subs->size() << " dense subgraphs:\n";
  for (size_t i = 0; i < subs->size(); ++i) {
    out << "  #" << (i + 1) << " " << Summarize((*subs)[i]) << "\n";
  }
  return Status::OK();
}

Status CmdGenerate(const Args& args, std::ostream& out) {
  const std::string& name = args.positional()[0];
  const std::string& path = args.positional()[1];
  const std::string& format = args.String("format");
  const int64_t nodes = args.Int("nodes");
  const int64_t edge_count = args.Int("edges");
  const auto s = static_cast<uint64_t>(args.Int("seed"));
  if ((name == "er" || name == "chung-lu") &&
      nodes > std::numeric_limits<NodeId>::max()) {
    return Status::InvalidArgument("--nodes exceeds the node id range");
  }
  // G(n, m) draws m distinct pairs and never returns when m > n(n-1)/2.
  const uint64_t pairs = static_cast<uint64_t>(nodes) *
                         static_cast<uint64_t>(nodes - 1) / 2;
  if (name == "er" && static_cast<uint64_t>(edge_count) > pairs) {
    return Status::InvalidArgument(
        "--edges=" + std::to_string(edge_count) + " exceeds the " +
        std::to_string(pairs) + " node pairs of --nodes=" +
        std::to_string(nodes));
  }

  EdgeList edges;
  if (name == "flickr-sim") {
    edges = MakeFlickrSim(s);
  } else if (name == "im-sim") {
    edges = MakeImSim(s);
  } else if (name == "livejournal-sim") {
    edges = MakeLiveJournalSim(s);
  } else if (name == "twitter-sim") {
    edges = MakeTwitterSim(s);
  } else if (name == "er") {
    edges = ErdosRenyiGnm(static_cast<NodeId>(nodes),
                          static_cast<EdgeId>(edge_count), s);
  } else if (name == "chung-lu") {
    ChungLuOptions cl;
    cl.num_nodes = static_cast<NodeId>(nodes);
    cl.num_edges = static_cast<EdgeId>(edge_count);
    cl.exponent = args.Double("exponent");
    edges = ChungLu(cl, s);
  } else {
    return Status::InvalidArgument("unknown dataset: " + name);
  }

  Status write_status =
      format == "bin" ? WriteBinaryEdgeFile(path, edges, /*weighted=*/false)
                      : WriteEdgeListText(path, edges);
  if (!write_status.ok()) return write_status;
  out << "wrote " << name << ": |V|=" << edges.num_nodes()
      << " |E|=" << edges.num_edges() << " to " << path << " (" << format
      << ")\n";
  return Status::OK();
}

Status RunCliCommand(const std::string& command,
                     const std::vector<std::string>& tokens,
                     std::ostream& out) {
  const std::vector<CommandSpec>& commands = CliCommands();
  auto spec = std::find_if(
      commands.begin(), commands.end(),
      [&](const CommandSpec& c) { return c.name == command; });
  if (spec == commands.end()) {
    return Status::InvalidArgument("unknown command: " + command);
  }
  // Every flag is checked here, before any work: a typo or a bad value
  // fails the command without side effects.
  StatusOr<Args> args = Args::Parse(*spec, CliGlobalFlags(), tokens);
  if (!args.ok()) return args.status();

  // Global fault-injection flag (see common/failpoint.h for the spec
  // grammar). Fails loudly when the build compiled failpoints out.
  if (const std::string& failpoints = args->String("failpoint");
      !failpoints.empty()) {
    if (Status s = Failpoints::Instance().SetFromFlag(failpoints); !s.ok()) {
      return s;
    }
  }
  const std::string& metrics_out = args->String("metrics-out");
  const std::string& trace_out = args->String("trace-out");
  if (!trace_out.empty()) {
    if (!obs::TraceRecorder::compiled_in()) {
      out << "note: tracing compiled out (-DDENSEST_TRACING=OFF); "
          << trace_out << " will hold an empty timeline\n";
    }
    obs::TraceRecorder::Get().Start();
  }
  Status status = spec->run(*args, out);
  // Write the artifacts even when the command failed — a chaos or serve
  // failure is exactly when the timeline and counters are wanted — but
  // never let an artifact-write error mask the command's own status.
  if (!trace_out.empty()) {
    obs::TraceRecorder::Get().Stop();
    Status w = obs::TraceRecorder::Get().DrainToJsonFile(trace_out);
    if (status.ok() && !w.ok()) return w;
    if (w.ok()) out << "trace written to " << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    Status w = obs::WriteMetricsFile(metrics_out);
    if (status.ok() && !w.ok()) return w;
    if (w.ok()) out << "metrics written to " << metrics_out << "\n";
  }
  return status;
}

}  // namespace densest

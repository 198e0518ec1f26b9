// serve-window: a sliding-window stream of inserts and deletes, replayed
// unthrottled by one writer into DynamicDensest, which publishes into an
// AnswerPlane. A 2-reader QueryService answers an open-loop client that
// sends query batches on a fixed schedule at each rate of a fixed ladder.
// The only workload for DegreeLevels and serving: writes run beside reads,
// so a serving change that costs the writer shows, and so does a publish
// cadence change that costs freshness.
//
// Threads: the writer (this thread), two readers and the client = 4; the
// recompute fallback runs single-threaded so the total stays at 4.
//
// Each ladder rung gets a fresh plane and service. The writer replays the
// whole update sequence into a fresh engine, segment after segment, until
// the rung's time is up; every segment must end in the same answer.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "batch.h"
#include "core/algorithm1.h"
#include "core/pass_engine.h"
#include "dynamic/dynamic_densest.h"
#include "dynamic/replay.h"
#include "serve/answer_plane.h"
#include "serve/query_service.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using densest::NodeId;

// A window small enough that one replay takes about 0.15 s, so a run
// measures dozens of segments and their median holds from run to run; with
// a 100,000-edge window each replay took about 0.8 s, and the writer rate
// of a run moved by up to 25% between runs.
constexpr NodeId kNodes = 25000;
constexpr uint64_t kBaseEdges = 75000;
constexpr uint64_t kWindow = 25000;
// Publication cadence and batch size are the `densest_cli serve` defaults.
constexpr uint64_t kPublishEvery = 1024;
constexpr size_t kReaders = 2;
constexpr size_t kBatchQueries = 8;
constexpr size_t kDistinctBatches = 4096;
/// Share of the run given to the nominal rung, where the writer's rate is
/// measured.
constexpr double kNominalShare = 0.75;

/// What one replay of the update sequence produced.
struct Segment {
  double wall_s = 0;
  double cpu_s = 0;  ///< the writer thread's CPU time
  uint64_t updates = 0;
  Fingerprint answer;  ///< final served answer: nodes, density bits, passes
  double density = 0;
  double upper_bound = 0;
  densest::DynamicDensestStats stats;
  uint64_t publications = 0;
  // Traced segments only.
  double read_s = 0;     ///< update-stream reads (decorator)
  double publish_s = 0;  ///< dynamic.publish spans: witness + plane write
  double round_s = 0;    ///< core.fused_round spans: recompute fallback
  std::vector<double> publish_us;  ///< plane writes (decorator)
};

/// One client observation for the torn-read audit: the epoch the answer
/// names, a digest of everything the query returned, and which query of the
/// fixed schedule it answered.
struct Observation {
  uint64_t epoch = 0;
  uint64_t digest = 0;
  uint32_t batch = 0;  ///< sequence number of the batch in the rung
  uint32_t slot = 0;   ///< query within the batch
};

/// Observations audited per rung. A fixed, pre-touched buffer keeps the
/// audit's memory out of the run-to-run peak RSS comparison; a fast rung
/// audits every k-th batch, with k chosen from its rate so that the audited
/// batches span the whole rung.
constexpr size_t kAuditCapacity = size_t{1} << 20;

struct Rung {
  double rate = 0;
  std::vector<double> due_s;       ///< due time, seconds into the rung
  std::vector<double> latency_us;  ///< completion minus due time
  std::vector<double> send_us;     ///< completion minus send time
  std::vector<double> lag_us;      ///< send minus due time
  std::vector<double> age_us;      ///< AgeMicros at each send
  uint64_t batches = 0, failed = 0, torn = 0;
  uint64_t observed = 0, audited = 0;  ///< query answers received, audited
  densest::QueryServiceStats service;
  std::vector<Segment> segments;
  double p99_us = 0;  ///< WindowedP99 of latency_us
  bool band_ok = true;
  bool passed = false;
};

uint64_t HashNodes(const std::vector<NodeId>& nodes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId v : nodes) h = (h ^ v) * 0x100000001b3ULL;
  return h;
}

/// Digest of what one query returned, apart from the epoch: the answer and
/// the field its kind adds (membership bit, or snapshot prefix and set).
uint64_t Digest(densest::ServeQuery::Kind kind, const densest::Answer& a,
                bool member, uint64_t prefix_updates, uint64_t nodes_hash) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; };
  mix(Bits(a.density));
  mix(Bits(a.upper_bound));
  mix(a.size);
  mix((a.certified ? 1 : 0) | (a.stale ? 2 : 0));
  if (kind == densest::ServeQuery::Kind::kMembership) mix(member ? 1 : 0);
  if (kind == densest::ServeQuery::Kind::kSnapshot) {
    mix(prefix_updates);
    mix(nodes_hash);
  }
  return h;
}

/// The p99 latency of a rung: the median over consecutive windows of
/// kWindowSeconds of each window's p99. A host stall inflates the windows it
/// falls in, not the whole rung, so the figure repeats from run to run.
constexpr double kWindowSeconds = 0.25;

double WindowedP99(const std::vector<double>& due_s,
                   const std::vector<double>& latency_us) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < due_s.size(); ++i) {
    const size_t w = static_cast<size_t>(due_s[i] / kWindowSeconds);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency_us[i]);
  }
  // The last window is cut short when the writer finishes; keep it only if
  // nothing else was measured.
  if (windows.size() > 1) windows.pop_back();
  std::vector<double> p99;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) p99.push_back(Quantile(w, 0.99));
  }
  return Median(p99);
}

bool LeqWithTol(double a, double b) { return a <= b * (1.0 + 1e-9) + 1e-12; }

class ServeWindow {
 public:
  ServeWindow(const Args& args, Report& report)
      : args_(args), report_(report) {}

  bool Setup() {
    const std::string path = args_.data_dir + "/serve_window.bin";
    const uint64_t seed = SubSeed(args_.seed, 4);
    if (!RunInChild([&] {
          const std::vector<densest::Edge> edges =
              ChungLuWithBlock(kNodes, kBaseEdges, 2.3, 200, 0.5, seed);
          // Insert every edge in order; once the window is full, each
          // insert is followed by the delete of the oldest live edge.
          std::vector<densest::EdgeUpdate> updates;
          uint64_t tick = 0;
          for (size_t i = 0; i < edges.size(); ++i) {
            updates.push_back(
                densest::InsertUpdate(edges[i].u, edges[i].v, ++tick));
            if (i >= kWindow) {
              const densest::Edge& old = edges[i - kWindow];
              updates.push_back(densest::DeleteUpdate(old.u, old.v, ++tick));
            }
          }
          return densest::WriteBinaryUpdateFile(path, kNodes, updates).ok();
        })) {
      return false;
    }
    auto file = densest::BinaryFileUpdateStream::Open(path);
    if (!file.ok()) return false;
    updates_.resize((*file)->SizeHint());
    (*file)->Reset();
    if ((*file)->NextBatch(updates_.data(), updates_.size()) !=
            updates_.size() ||
        !(*file)->status().ok()) {
      return false;
    }
    BuildBatches();
    // Warm-up: one standalone segment; its answer is the one every later
    // segment must reproduce.
    densest::AnswerPlane plane(kNodes);
    return ReplaySegment(plane, false, &reference_) && Final();
  }

  void Run() {
    report_.Attempt();
    // The untraced run, which reports the writer's rate, serves the nominal
    // rate for the whole run. The traced run climbs the ladder, whose SLO
    // verdicts are per-layer metrics: the nominal rung, where the writer's
    // rate is measured, gets kNominalShare of the run and the other rungs
    // share the rest.
    const std::vector<double> ladder =
        args_.trace ? args_.ladder : std::vector<double>{args_.nominal_rate};
    std::vector<Rung> rungs;
    const double others = static_cast<double>(ladder.size() - 1);
    for (double rate : ladder) {
      const double rung_s =
          others == 0 ? args_.seconds
          : rate == args_.nominal_rate
              ? kNominalShare * args_.seconds
              : (1.0 - kNominalShare) * args_.seconds / others;
      rungs.push_back(ServeRung(rate, rung_s));
      if (report_.failed() > 0) return;
    }

    // Identity: standalone segments of the other mode must end in the same
    // answer. The traced run alternates both modes, which also measures the
    // tracing overhead.
    const std::vector<bool> modes = args_.trace
                                        ? std::vector<bool>{true, false, true,
                                                            false}
                                        : std::vector<bool>{true};
    std::vector<double> plain_s, traced_s;
    for (const bool traced : modes) {
      densest::AnswerPlane plane(kNodes);
      Segment seg;
      report_.Attempt();
      if (!ReplaySegment(plane, traced, &seg)) return;
      Same(seg, traced ? "traced segment" : "untraced segment");
      (traced ? traced_s : plain_s).push_back(seg.wall_s);
    }

    // Per rung: open-loop SLO verdicts.
    const Rung* nominal = nullptr;
    double max_qps = 0;
    std::vector<Segment> all;
    for (const Rung& r : rungs) {
      if (r.rate == args_.nominal_rate) nominal = &r;
      if (r.passed) max_qps = std::max(max_qps, r.rate);
      std::vector<double> wall_rate, cpu_rate;
      for (const Segment& s : r.segments) {
        wall_rate.push_back(static_cast<double>(s.updates) / s.wall_s);
        cpu_rate.push_back(static_cast<double>(s.updates) / s.cpu_s);
        all.push_back(s);
      }
      std::fprintf(stderr,
                   "serve-window: %.0f batches/s: %llu batches, p50 %.1fus, "
                   "windowed p99 %.1fus, lag p99 %.1fus, %llu failed, %llu "
                   "torn, %llu of %llu answers audited, writer %.0f "
                   "updates/s (%.0f per CPU s) over %zu segments: %s\n",
                   r.rate, static_cast<unsigned long long>(r.batches),
                   Quantile(r.latency_us, 0.5), r.p99_us,
                   Quantile(r.lag_us, 0.99),
                   static_cast<unsigned long long>(r.failed),
                   static_cast<unsigned long long>(r.torn),
                   static_cast<unsigned long long>(r.audited),
                   static_cast<unsigned long long>(r.observed),
                   Median(wall_rate), Median(cpu_rate), r.segments.size(),
                   r.passed ? "meets SLO" : "misses SLO");
    }
    if (nominal == nullptr) {
      report_.Fail("serve-window: the nominal rate is not on the ladder");
      return;
    }

    // The writer's rate while serving at the nominal rate: the median over
    // that rung's segments of updates per second of the writer thread's CPU
    // time. Every segment replays the same updates into a fresh engine, so
    // they differ only in how much the host slowed them.
    std::vector<double> cpu_rate, wall_rate;
    for (const Segment& s : nominal->segments) {
      cpu_rate.push_back(static_cast<double>(s.updates) / s.cpu_s);
      wall_rate.push_back(static_cast<double>(s.updates) / s.wall_s);
    }
    const double apply = Median(cpu_rate);
    report_.Add("edges_per_cpu_s", apply, "1/cpu_s");
    report_.Add("passes", static_cast<double>(reference_.answer.passes),
                "count");
    report_.Add("density", reference_.density, "edges/node");
    report_.Add("band_ratio", reference_.upper_bound / reference_.density,
                "ratio");
    report_.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report_.Add("apply_updates_per_cpu_s", apply, "1/cpu_s");
    report_.Add("harness.wall_edges_per_s", Median(wall_rate), "1/s");
    report_.Add("serve.query_p50_us", Quantile(nominal->latency_us, 0.5),
                "us");
    report_.Add("serve.query_p99_us", nominal->p99_us, "us");
    report_.Add("serve.max_qps_at_slo", max_qps, "1/s");
    report_.Add("serve.answer_age_p99_us", Quantile(nominal->age_us, 0.99),
                "us");

    // Per-layer numbers (meaningful in the traced run, whose rungs run
    // through the decorators with the trace recorder on).
    std::vector<double> apply_s, update_ns, read_s, publish_s, round_s,
        publish_us;
    for (const Segment& s : all) {
      const double a = s.wall_s - s.publish_s - s.read_s;
      apply_s.push_back(a);
      update_ns.push_back(1e9 * a / static_cast<double>(s.updates));
      read_s.push_back(s.read_s);
      publish_s.push_back(s.publish_s);
      round_s.push_back(s.round_s);
      publish_us.insert(publish_us.end(), s.publish_us.begin(),
                        s.publish_us.end());
    }
    const densest::DynamicDensestStats& st = reference_.stats;
    const double updates = static_cast<double>(reference_.updates);
    report_.Add("dynamic.apply_s", Median(apply_s), "s");
    report_.Add("dynamic.update_ns", Median(update_ns), "ns");
    report_.Add("dynamic.update_read_s", Median(read_s), "s");
    report_.Add("dynamic.publish_s", Median(publish_s), "s");
    report_.Add("dynamic.level_moves", static_cast<double>(st.level_moves),
                "count");
    report_.Add("dynamic.moves_per_update",
                static_cast<double>(st.level_moves) / updates, "ratio");
    report_.Add("dynamic.recomputes", static_cast<double>(st.recomputes),
                "count");
    report_.Add("dynamic.window_moves", static_cast<double>(st.window_moves),
                "count");
    report_.Add("multi_run.round_s", Median(round_s), "s");
    report_.Add("serve.publish_p50_us", Quantile(publish_us, 0.5), "us");
    report_.Add("serve.publish_p99_us", Quantile(publish_us, 0.99), "us");
    report_.Add("serve.publications",
                static_cast<double>(reference_.publications), "count");
    report_.Add("serve.service_batch_p50_us", nominal->service.latency_p50_us,
                "us");
    report_.Add("serve.service_batch_p99_us", nominal->service.latency_p99_us,
                "us");
    report_.Add("serve.client_overhead_us",
                Quantile(nominal->send_us, 0.5) -
                    nominal->service.latency_p50_us,
                "us");
    uint64_t shed = 0, expired = 0, observed = 0, audited = 0;
    for (const Rung& r : rungs) {
      shed += r.service.shed;
      expired += r.service.expired;
      observed += r.observed;
      audited += r.audited;
    }
    report_.Add("harness.audited_frac",
                static_cast<double>(audited) / static_cast<double>(observed),
                "ratio");
    report_.Add("serve.shed", static_cast<double>(shed), "count");
    report_.Add("serve.expired", static_cast<double>(expired), "count");
    report_.Add("harness.client_lag_ms", 1e-3 * Quantile(nominal->lag_us, 0.99),
                "ms");
    report_.Add("harness.reference_s", Median(final_s_), "s");
    if (!traced_s.empty() && !plain_s.empty()) {
      report_.Add("harness.solve_s", Median(traced_s), "s");
      report_.Add("harness.trace_overhead_frac",
                  Median(traced_s) / Median(plain_s) - 1.0, "ratio");
    }
  }

 private:
  void BuildBatches() {
    // The fixed query schedule: batch k of a rung is batches_[k % size],
    // drawn from the seed with the configured density/membership/snapshot
    // weights.
    Rng rng(SubSeed(args_.seed, 5));
    const int total = std::max(1, args_.query_mix[0] + args_.query_mix[1] +
                                      args_.query_mix[2]);
    batches_.assign(kDistinctBatches, {});
    for (auto& batch : batches_) {
      for (size_t i = 0; i < kBatchQueries; ++i) {
        const int draw = static_cast<int>(rng.Below(total));
        densest::ServeQuery q;
        if (draw < args_.query_mix[0]) {
          q.kind = densest::ServeQuery::Kind::kDensity;
        } else if (draw < args_.query_mix[0] + args_.query_mix[1]) {
          q.kind = densest::ServeQuery::Kind::kMembership;
          q.node = static_cast<NodeId>(rng.Below(kNodes));
        } else {
          q.kind = densest::ServeQuery::Kind::kSnapshot;
        }
        batch.push_back(q);
      }
    }
  }

  /// Replays the whole update sequence into a fresh engine publishing into
  /// `plane`; `traced` routes it through the decorators with tracing on.
  bool ReplaySegment(densest::AnswerPlane& plane, bool traced, Segment* out) {
    last_engine_.reset();  // one engine at a time, as a deployment holds
    densest::DynamicDensestOptions options;
    options.engine_options.num_threads = 1;
    auto engine = densest::DynamicDensest::Create(kNodes, options);
    if (!engine.ok()) {
      report_.Fail("serve-window: engine construction");
      return false;
    }
    densest::MemoryUpdateStream memory(updates_, kNodes);
    TimedUpdateStream timed_updates(memory);
    TimedAnswerSink timed_sink(plane);
    densest::ReplayOptions replay;
    replay.query_every = 0;
    replay.publish_every = kPublishEvery;
    replay.publish = traced ? static_cast<densest::AnswerSink*>(&timed_sink)
                            : &plane;
    densest::UpdateStream& input =
        traced ? static_cast<densest::UpdateStream&>(timed_updates) : memory;
    const uint64_t epoch0 = plane.epoch();
    TraceScope scope(traced);
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ThreadCpuSeconds();
    auto result = densest::ReplayUpdates(input, **engine, replay);
    out->cpu_s = ThreadCpuSeconds() - cpu0;
    out->wall_s = SecondsSince(t0);
    out->publications = plane.epoch() - epoch0;
    if (!result.ok()) {
      report_.Fail("serve-window: replay: " + result.status().ToString());
      return false;
    }
    const densest::Answer answer = (*engine)->Query();
    out->updates = result->updates;
    out->answer = {(*engine)->DensestNodes(), Bits(answer.density),
                   1 + result->engine_stats.recomputes};
    out->density = answer.density;
    out->upper_bound = answer.upper_bound;
    out->stats = result->engine_stats;
    if (traced) {
      const std::map<std::string, double> spans = DrainSpanSeconds();
      out->read_s = timed_updates.read_s();
      out->publish_s = SpanSeconds(spans, "dynamic.publish");
      out->round_s = SpanSeconds(spans, "core.fused_round");
      out->publish_us = timed_sink.publish_us();
    }
    last_engine_ = std::move(*engine);
    return true;
  }

  /// The final answer must sit inside its band against a batch Algorithm 1
  /// recomputation (eps = 0: rho_b <= rho* <= 2 rho_b), and its density
  /// must recount exactly over the live edges.
  bool Final() {
    const Clock::time_point t0 = Clock::now();
    const bool ok = CheckFinal();
    final_s_.push_back(SecondsSince(t0));
    return ok;
  }

  bool CheckFinal() {
    report_.Attempt();
    const densest::EdgeList edges = last_engine_->CurrentEdges();
    const densest::Answer answer = last_engine_->Query();
    densest::EdgeListStream stream(edges);
    densest::PassEngine engine(densest::PassEngineOptions{1});
    densest::Algorithm1Options opt;
    opt.epsilon = 0.0;
    opt.record_trace = false;
    opt.engine = &engine;
    auto batch = densest::RunAlgorithm1(stream, opt);
    if (!batch.ok()) {
      report_.Fail("serve-window: batch recomputation");
      return false;
    }
    const bool in_band = answer.certified &&
                         LeqWithTol(answer.density, 2.0 * batch->density) &&
                         LeqWithTol(batch->density, answer.upper_bound);
    std::vector<uint8_t> in(kNodes, 0);
    const std::vector<NodeId> nodes = last_engine_->DensestNodes();
    for (NodeId v : nodes) in[v] = 1;
    double inside = 0;
    for (const densest::Edge& e : edges.edges()) inside += in[e.u] & in[e.v];
    const double rho = nodes.empty() ? 0.0 : inside / double(nodes.size());
    if (!in_band || !LeqWithTol(rho, answer.density) ||
        !LeqWithTol(answer.density, rho)) {
      report_.Fail("serve-window: final answer outside its band");
      return false;
    }
    return true;
  }

  void Same(const Segment& seg, const char* what) {
    report_.Attempt();
    if (!(seg.answer == reference_.answer)) {
      report_.Fail(std::string("serve-window: ") + what +
                   " ends in a different answer");
    }
  }

  Rung ServeRung(double rate, double rung_s) {
    Rung rung;
    rung.rate = rate;
    densest::AnswerPlane plane(kNodes);
    plane.EnableWriterLog();
    densest::QueryServiceOptions qopt;
    qopt.num_readers = kReaders;
    densest::QueryService service(plane, qopt);

    // Client-side buffers are sized and touched up front, so the timed loop
    // neither allocates nor page-faults, and their memory does not depend
    // on how many batches a run got to send.
    const size_t expected = static_cast<size_t>(rate * (rung_s + 2.0)) + 16;
    for (std::vector<double>* v :
         {&rung.due_s, &rung.latency_us, &rung.send_us, &rung.lag_us,
          &rung.age_us}) {
      v->resize(expected);
      v->clear();
    }

    // Audit every stride-th batch, so that the audit buffer lasts the
    // rung plus the writer's last segment.
    const uint64_t stride = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(rate * (rung_s + 2.0) *
                                           kBatchQueries / kAuditCapacity)));

    // Open-loop client: batch k is due at start + k / rate regardless of
    // how earlier batches fared; latency is charged from the due time.
    std::atomic<bool> writer_done{false};
    size_t audited = 0;
    const Clock::time_point start = Clock::now();
    std::thread client([&] {
      std::vector<densest::ServeResult> results;
      const auto period = std::chrono::duration<double>(1.0 / rate);
      for (uint64_t k = 0; !writer_done.load(std::memory_order_acquire); ++k) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(period * k);
        // Spin rather than sleep: on a virtual machine a sleeping thread's
        // wake-up can lag by milliseconds, which would be charged as
        // latency.
        while (Clock::now() < due) {
#if defined(__x86_64__)
          __builtin_ia32_pause();  // yield the core's issue slots meanwhile
#endif
        }
        const Clock::time_point sent = Clock::now();
        rung.due_s.push_back(
            std::chrono::duration<double>(due - start).count());
        rung.age_us.push_back(plane.AgeMicros());
        const uint32_t batch_index =
            static_cast<uint32_t>(k % batches_.size());
        const std::vector<densest::ServeQuery>& batch = batches_[batch_index];
        const densest::Status s = service.QueryBatch(batch, &results);
        const Clock::time_point done = Clock::now();
        ++rung.batches;
        rung.latency_us.push_back(
            std::chrono::duration<double, std::micro>(done - due).count());
        rung.send_us.push_back(
            std::chrono::duration<double, std::micro>(done - sent).count());
        rung.lag_us.push_back(
            std::chrono::duration<double, std::micro>(sent - due).count());
        if (!s.ok()) {
          ++rung.failed;  // shed, expired and failed batches miss the SLO
          continue;
        }
        rung.observed += batch.size();
        if (k % stride != 0 || audited + batch.size() > audit_.size()) {
          continue;
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          const densest::ServeResult& r = results[i];
          audit_[audited++] = {
              r.answer.epoch,
              Digest(batch[i].kind, r.answer, r.member, r.prefix_updates,
                     HashNodes(r.nodes)),
              static_cast<uint32_t>(k), static_cast<uint32_t>(i)};
        }
      }
    });

    // The writer runs on this thread, so every engine is allocated from the
    // same malloc arena and the peak RSS does not depend on which arena a
    // fresh writer thread happened to get.
    bool writer_ok = true;
    do {
      Segment seg;
      if (!ReplaySegment(plane, args_.trace, &seg)) {
        writer_ok = false;
        break;
      }
      rung.segments.push_back(std::move(seg));
    } while (SecondsSince(start) < rung_s);
    writer_done.store(true, std::memory_order_release);
    client.join();
    service.Stop();
    rung.service = service.stats();
    if (args_.trace) DrainSpanSeconds();  // serve.batch spans: not per segment

    report_.Attempt(rung.batches + rung.segments.size());
    for (uint64_t i = 0; i < rung.failed; ++i) {
      report_.Fail("serve-window: query batch failed");
    }
    if (!writer_ok) return rung;
    for (const Segment& seg : rung.segments) Same(seg, "segment");
    rung.band_ok = Final();
    rung.audited = audited;
    rung.torn = CountTorn({audit_.data(), audited}, plane.writer_log());
    if (rung.torn > 0) report_.Fail("serve-window: torn reads");

    // The rung meets the SLO when its p99 from due time is within the
    // limit, the generator did not fall behind by the end (no growing
    // backlog), and nothing failed.
    rung.p99_us = WindowedP99(rung.due_s, rung.latency_us);
    const size_t tail = rung.lag_us.size() / 10;
    std::vector<double> last_lags(rung.lag_us.end() - tail, rung.lag_us.end());
    rung.passed = rung.failed == 0 && rung.torn == 0 && rung.band_ok &&
                  rung.p99_us <= args_.slo_p99_us &&
                  Median(last_lags) <= args_.slo_p99_us;
    return rung;
  }

  /// Every audited answer must be one writer publication verbatim: epoch
  /// 0 is the pre-publication default, any other epoch indexes the log.
  uint64_t CountTorn(std::span<const Observation> observations,
                     const std::vector<densest::PlaneSnapshot>& log) const {
    const densest::PlaneSnapshot empty;
    const uint64_t empty_hash = HashNodes({});
    uint64_t torn = 0;
    for (const Observation& ob : observations) {
      if (ob.epoch > log.size()) {
        ++torn;
        continue;
      }
      const densest::PlaneSnapshot& want =
          ob.epoch == 0 ? empty : log[ob.epoch - 1];
      const densest::ServeQuery& q =
          batches_[ob.batch % batches_.size()][ob.slot];
      const bool member = std::binary_search(want.members.begin(),
                                             want.members.end(), q.node);
      const uint64_t expect =
          Digest(q.kind, want.answer, member, want.prefix_updates,
                 ob.epoch == 0 ? empty_hash : HashNodes(want.members));
      torn += ob.digest == expect ? 0 : 1;
    }
    return torn;
  }

  const Args& args_;
  Report& report_;
  std::vector<densest::EdgeUpdate> updates_;
  std::vector<std::vector<densest::ServeQuery>> batches_;
  Segment reference_;
  std::unique_ptr<densest::DynamicDensest> last_engine_;
  std::vector<double> final_s_;  ///< durations of the Final() checks
  std::vector<Observation> audit_ = std::vector<Observation>(kAuditCapacity);
};

}  // namespace

void RunServeWindow(const Args& args, Report& report) {
  if (std::find(args.ladder.begin(), args.ladder.end(), args.nominal_rate) ==
          args.ladder.end() ||
      args.query_mix.size() != 3 || args.slo_p99_us <= 0) {
    report.Fail(
        "serve-window: needs --ladder holding --nominal-rate, --slo-p99-us "
        "and --query-mix");
    return;
  }
  // Seven set-ups: each takes about 0.2 s, and its warm-up segment carries
  // the same host noise as the writer, so the median needs more samples
  // than the batch workloads' three.
  std::unique_ptr<ServeWindow> w;
  std::vector<double> setup_s;
  for (int i = 0; i < 7; ++i) {
    w.reset();
    const Clock::time_point t0 = Clock::now();
    w = std::make_unique<ServeWindow>(args, report);
    report.Attempt();
    if (!w->Setup()) {
      report.Fail("serve-window: set-up");
      return;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  report.Add("setup_s", Median(setup_s), "s");
  w->Run();
}

}  // namespace perfbench

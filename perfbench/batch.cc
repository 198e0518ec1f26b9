#include "batch.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "graph/edge_list.h"
#include "obs/trace.h"
#include "stream/file_stream.h"

namespace perfbench {

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

size_t Threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

size_t FileEngineThreads() { return Threads() > 1 ? Threads() - 1 : 1; }

bool RunInChild(const std::function<bool()>& fn) {
  const pid_t pid = fork();
  if (pid < 0) return fn();  // no fork: generate in this process instead
  if (pid == 0) _exit(fn() ? 0 : 1);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool WriteEdges(const std::string& path, densest::NodeId n,
                std::vector<densest::Edge> edges) {
  const densest::EdgeList list(n, std::move(edges));
  return densest::WriteBinaryEdgeFile(path, list, /*weighted=*/false).ok();
}

std::map<std::string, double> DrainSpanSeconds() {
  std::map<std::string, double> out;
  for (const densest::obs::TraceSpan& s :
       densest::obs::TraceRecorder::Get().Drain()) {
    out[std::string(s.name)] += 1e-6 * static_cast<double>(s.dur_us);
  }
  return out;
}

double SpanSeconds(const std::map<std::string, double>& spans,
                   const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second;
}

void AddPassLayers(const TimedEdgeStream& timed, double wall_s, Layers& l) {
  double read_s = 0, pass_s = 0;
  uint64_t edges = 0;
  for (const TimedEdgeStream::Pass& p : timed.passes()) {
    read_s += p.read_s;
    pass_s += p.window_s;
    edges += p.edges;
  }
  const double first = timed.passes().empty() ? 0 : timed.passes()[0].window_s;
  l["stream.read_s"] = {read_s, "s"};
  l["pass_engine.pass1_s"] = {first, "s"};
  l["pass_engine.pass_s"] = {pass_s, "s"};
  l["pass_engine.self_s"] = {pass_s - read_s, "s"};
  l["pass_engine.edges_scanned"] = {static_cast<double>(edges), "count"};
  l["pass_engine.scan_edges_per_s"] = {static_cast<double>(edges) / pass_s,
                                       "1/s"};
  l["harness.unattributed_s"] = {wall_s - pass_s, "s"};
}

TraceScope::TraceScope(bool traced) : traced_(traced) {
  if (traced_) {
    DrainSpanSeconds();  // start from an empty buffer
    densest::obs::TraceRecorder::Get().Start();
  }
}

TraceScope::~TraceScope() {
  if (traced_) densest::obs::TraceRecorder::Get().Stop();
}

namespace {

std::vector<double> Walls(const std::vector<Solve>& solves) {
  std::vector<double> w;
  for (const Solve& s : solves) w.push_back(s.wall_s);
  return w;
}

}  // namespace

void RunBatch(const std::function<std::unique_ptr<BatchWorkload>()>& make,
              const Args& args, Report& report) {
  // Set-up runs three times and reports the median; the last one is kept.
  // Each includes one warm-up solve, whose answer the run is checked by.
  std::unique_ptr<BatchWorkload> w;
  Solve warm;
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    w.reset();
    const Clock::time_point t0 = Clock::now();
    w = make();
    report.Attempt();
    if (!w->Setup(args) || !w->Run(false, &warm, report)) {
      report.Fail("set-up or warm-up solve");
      return;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  report.Add("setup_s", Median(setup_s), "s");

  Solve ref;
  const Clock::time_point ref_t0 = Clock::now();
  report.Attempt();
  if (!w->Reference(&ref, report)) {
    report.Fail("reference solve");
    return;
  }
  report.Add("harness.reference_s", SecondsSince(ref_t0), "s");
  w->Check(warm, ref, report);

  // Timed solves. The untraced run times plain solves; the traced run
  // alternates traced and plain ones so the tracing overhead is measured
  // on the same machine state. Either run ends with one solve of the other
  // kind, whose answer must match bit for bit.
  std::vector<Solve> plain, traced;
  const Clock::time_point loop_t0 = Clock::now();
  auto solve = [&](bool with_trace) {
    Solve s;
    report.Attempt();
    if (!w->Run(with_trace, &s, report)) {
      report.Fail(with_trace ? "traced solve" : "solve");
      return;
    }
    if (!(s.answer == warm.answer)) {
      report.Fail(with_trace ? "traced answer differs from the untraced one"
                             : "answer differs between solves");
    }
    (with_trace ? traced : plain).push_back(std::move(s));
  };
  while (SecondsSince(loop_t0) < args.seconds || plain.size() < 3 ||
         (args.trace && traced.size() < 3)) {
    if (args.trace) solve(true);
    solve(false);
    if (report.failed() > 0) return;
  }
  if (!args.trace) solve(true);
  if (plain.empty() || traced.empty()) return;

  const std::vector<double> walls = Walls(plain);
  const double median_s = Median(walls);
  std::string trail;
  for (double x : walls) trail += " " + std::to_string(x).substr(0, 5);
  // Process CPU time next to wall time: where wall exceeds CPU by more
  // than the solve waits on its own threads, the host took the vCPU away.
  trail += "; cpu s:";
  for (const Solve& s : plain) {
    trail += " " + std::to_string(s.cpu_s).substr(0, 5);
  }
  std::fprintf(stderr, "%s: %zu solves, wall s:%s\n", args.workload.c_str(),
               walls.size(), trail.c_str());
  std::vector<double> cpus;
  for (const Solve& s : plain) cpus.push_back(s.cpu_s);
  const double median_cpu_s = Median(cpus);
  const double edges = static_cast<double>(w->input_edges());
  const Solve& last = plain.back();
  report.Add("edges_per_cpu_s", edges / median_cpu_s, "1/cpu_s");
  report.Add("passes", static_cast<double>(last.answer.passes), "count");
  report.Add("density", last.density, "edges/node");
  report.Add("band_ratio", last.upper_bound / last.density, "ratio");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Add("apply_updates_per_cpu_s", last.records_applied / median_cpu_s,
             "1/cpu_s");
  report.Add("harness.wall_edges_per_s", edges / median_s, "1/s");

  // Per-layer numbers: the median over traced solves of each one.
  std::map<std::string, std::pair<std::vector<double>, std::string>> layers;
  for (const Solve& s : traced) {
    for (const auto& [name, value] : s.layers) {
      layers[name].first.push_back(value.first);
      layers[name].second = value.second;
    }
  }
  for (const auto& [name, values] : layers) {
    report.Add(name, Median(values.first), values.second);
  }
  const double traced_s = Median(Walls(traced));
  report.Add("harness.solve_s", traced_s, "s");
  report.Add("harness.trace_overhead_frac", traced_s / median_s - 1.0,
             "ratio");
  w->Finish(plain, ref, report);
}

}  // namespace perfbench

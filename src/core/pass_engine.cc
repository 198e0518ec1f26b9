#include "core/pass_engine.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace densest {

namespace {

/// Sentinel shard index: the task walks the whole round sequentially.
constexpr uint32_t kWholeRound = std::numeric_limits<uint32_t>::max();

/// Splits rows [0, n) into shards of roughly 2 * kShardEdges adjacency
/// entries each (rows are never split), stamped from `proto`. Depends only
/// on the graph shape, so shard boundaries are identical for every thread
/// count.
template <typename DegreeFn>
std::vector<Shard> ShardRows(NodeId n, const DegreeFn& degree, Shard proto) {
  std::vector<Shard> shards;
  size_t entries = 0;
  for (NodeId u = 0; u < n; ++u) {
    entries += degree(u);
    if (entries >= 2 * kShardEdges) {
      proto.end = u + 1;
      shards.push_back(proto);
      proto.begin = u + 1;
      entries = 0;
    }
  }
  proto.end = n;
  if (proto.end > proto.begin) shards.push_back(proto);
  return shards;
}

/// The row fill's shards for `runs` over `stream`: row ranges of the CSR
/// graph the stream exposes for the runs' kind, or none when the stream
/// has no such view (or the runs mix kinds), selecting the edge fill.
std::vector<Shard> RowShards(const EdgeStream& stream,
                             std::span<FusedRun* const> runs) {
  if (runs.empty()) return {};
  const bool directed = runs[0]->directed();
  for (const FusedRun* run : runs) {
    if (run->directed() != directed) return {};
  }
  if (directed) {
    const DirectedGraph* g = stream.DirectedCsrView();
    if (g == nullptr) return {};
    return ShardRows(
        g->num_nodes(), [g](NodeId u) { return g->OutDegree(u); },
        Shard{.digraph = g});
  }
  const UndirectedGraph* g = stream.UndirectedCsrView();
  if (g == nullptr) return {};
  return ShardRows(
      g->num_nodes(), [g](NodeId u) { return g->Degree(u); },
      Shard{.graph = g});
}

/// RunUndirected's and RunDirected's one-pass run: `kernel` folds a shard
/// into the engine's scratch planes and the run's slot totals.
class OnePassRun final : public FusedRun {
 public:
  using Kernel = std::function<void(const Shard&, size_t, SlotTotals&)>;

  OnePassRun(std::span<AccumPlane> planes, Kernel kernel)
      : planes_(planes), kernel_(std::move(kernel)) {}

  bool done() const override { return done_; }
  bool directed() const override { return planes_.size() == 2; }
  void BeginPass() override {
    for (AccumPlane& plane : planes_) plane.BeginPass();
    totals_.Reset();
  }
  void AccumulateShard(const Shard& shard, size_t slot) override {
    kernel_(shard, slot, totals_);
  }
  bool parallel_shards() const override { return planes_[0].slotted(); }
  void FinishPass() override { done_ = true; }
  const SlotTotals& totals() const { return totals_; }

 private:
  std::span<AccumPlane> planes_;
  Kernel kernel_;
  SlotTotals totals_;
  bool done_ = false;
};

}  // namespace

PassEngine::PassEngine(const PassEngineOptions& options) {
  num_threads_ = options.num_threads;
  if (num_threads_ == 0) {
    num_threads_ = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

PassEngine::~PassEngine() = default;

void PassEngine::Dispatch(size_t count,
                          const std::function<void(size_t)>& fn) {
  if (pool_ != nullptr && count > 1) {
    pool_->ParallelFor(count, fn);
  } else {
    for (size_t i = 0; i < count; ++i) fn(i);
  }
}

void PassEngine::Accumulate(std::span<FusedRun* const> runs, size_t count) {
  DENSEST_TRACE_SPAN("core.pass_round");
  DENSEST_METRIC_COUNTER("core.pass_rounds").Inc();
  DENSEST_METRIC_COUNTER("core.pass_shards").Inc(count);
  if (pool_ == nullptr || runs.size() >= num_threads_) {
    // Run-major: each task owns one run's accumulators and walks the
    // round's shards in order, so threads share nothing mutable.
    Dispatch(runs.size(), [&](size_t i) {
      for (size_t s = 0; s < count; ++s) {
        runs[i]->AccumulateShard(shards_[s], s);
      }
    });
    return;
  }
  // Work-major: each (run, shard) pair is a task — shard s feeds slot s,
  // so same-run tasks write disjoint slot planes. Runs whose round must
  // stay sequential become one whole-round task.
  tasks_.clear();
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i]->parallel_shards()) {
      tasks_.emplace_back(static_cast<uint32_t>(i), kWholeRound);
      continue;
    }
    for (size_t s = 0; s < count; ++s) {
      tasks_.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(s));
    }
  }
  Dispatch(tasks_.size(), [&](size_t t) {
    const auto [i, s] = tasks_[t];
    if (s != kWholeRound) {
      runs[i]->AccumulateShard(shards_[s], s);
      return;
    }
    for (size_t k = 0; k < count; ++k) {
      runs[i]->AccumulateShard(shards_[k], k);
    }
  });
}

template <typename FillFn>
void PassEngine::ScanRounds(FillFn&& fill, std::span<FusedRun* const> runs,
                            const CancelToken* cancel) {
  for (;;) {
    if (ShouldStop(cancel)) return;
    const size_t count = fill(shards_);
    if (count == 0) return;
    DENSEST_TRACE_SPAN("core.fused_round");
    Accumulate(runs, count);
    if (count < kShardSlots) return;
  }
}

Status PassEngine::Drive(EdgeStream& stream, std::span<FusedRun* const> runs,
                         const CancelToken* cancel) {
  last_physical_passes_ = last_logical_passes_ = last_edges_scanned_ = 0;
  batch_.resize(kShardSlots * kShardEdges);
  const std::vector<Shard> rows = RowShards(stream, runs);

  std::vector<FusedRun*> active, scan;
  for (;;) {
    active.clear();
    scan.clear();
    for (FusedRun* run : runs) {
      if (run->done()) continue;
      active.push_back(run);
      if (run->private_edges() == nullptr) scan.push_back(run);
    }
    if (active.empty()) break;
    for (FusedRun* run : active) run->BeginPass();

    if (!scan.empty()) {
      // One physical scan, shared by every run that reads the stream.
      DENSEST_METRIC_COUNTER("core.passes").Inc();
      stream.Reset();
      ++last_physical_passes_;
      last_logical_passes_ += scan.size();
      size_t next_row = 0;
      ScanRounds(
          [&](Shards& shards) {
            size_t count = 0;
            if (!rows.empty()) {
              count = std::min(kShardSlots, rows.size() - next_row);
              std::copy_n(rows.begin() + next_row, count, shards.begin());
              next_row += count;
              return count;
            }
            // Shard i of the round views scratch region i, so the round's
            // views stay valid together.
            for (; count < kShardSlots; ++count) {
              const std::span<const Edge> view = stream.NextView(
                  batch_.data() + count * kShardEdges, kShardEdges);
              if (view.empty()) break;
              last_edges_scanned_ += view.size();
              shards[count] = Shard{.edges = view};
            }
            return count;
          },
          scan, cancel);
      if (!rows.empty() && next_row == rows.size()) {
        last_edges_scanned_ += stream.SizeHint();
      }
    }
    for (FusedRun* run : active) {
      std::vector<Edge>* edges = run->private_edges();
      if (edges == nullptr) continue;
      // An in-memory pass over the run's own edges, off the shared scan,
      // in kShardEdges slices (the edge fill's schedule).
      DENSEST_METRIC_COUNTER("core.passes").Inc();
      size_t next = 0;
      ScanRounds(
          [&](Shards& shards) {
            size_t count = 0;
            for (; count < kShardSlots && next < edges->size(); ++count) {
              const size_t take = std::min(kShardEdges, edges->size() - next);
              shards[count] = Shard{.edges = {edges->data() + next, take}};
              next += take;
            }
            return count;
          },
          std::span<FusedRun* const>(&run, 1), cancel);
    }

    // A failing stream or a cancelled pass ends early and silently: the
    // accumulated statistics describe a truncated edge set. Abort before
    // peeling on them. The pool is already drained (Dispatch returns only
    // after every task finished), so no thread runs against freed state.
    if (Status io = stream.status(); !io.ok()) return io;
    if (Status c = CheckCancel(cancel); !c.ok()) return c;
    // Reduce + peel, run-major: only run-private state mutates.
    Dispatch(active.size(), [&](size_t i) { active[i]->FinishPass(); });
  }
  return Status::OK();
}

AccumPlane& PassEngine::PassPlane(size_t i, std::vector<double>& out,
                                  bool direct) {
  AccumPlane& plane = pass_planes_[i];
  plane.values.swap(out);  // handed back, reduced, by SwapBack
  const size_t n = plane.values.size();
  if (direct || plane.slots.empty() || plane.slots[0].size() != n) {
    plane.Init(n, direct);
  }
  return plane;
}

void PassEngine::SwapBack(size_t i, std::vector<double>& out) {
  // Reducing an abandoned pass too keeps the slots zero for the next call.
  pass_planes_[i].Reduce();
  pass_planes_[i].values.swap(out);
}

UndirectedPassResult PassEngine::RunUndirected(EdgeStream& stream,
                                               const NodeSet& alive,
                                               std::vector<double>& degrees,
                                               const CancelToken* cancel) {
  AccumPlane& deg = PassPlane(0, degrees, DirectPlanes(stream, 1));
  OnePassRun run({&deg, 1},
                 [&](const Shard& shard, size_t slot, SlotTotals& totals) {
                   AccumulateUndirected(shard, alive, deg.Slot(slot), totals,
                                        slot);
                 });
  FusedRun* runs[] = {&run};
  const bool ok = Drive(stream, runs, cancel).ok();
  SwapBack(0, degrees);
  return ok ? run.totals().Undirected() : UndirectedPassResult{};
}

DirectedPassResult PassEngine::RunDirected(EdgeStream& stream,
                                           const NodeSet& s_set,
                                           const NodeSet& t_set,
                                           std::vector<double>& out_to_t,
                                           std::vector<double>& in_from_s,
                                           const CancelToken* cancel) {
  const bool direct = DirectPlanes(stream, 1);
  AccumPlane& out = PassPlane(0, out_to_t, direct);
  AccumPlane& in = PassPlane(1, in_from_s, direct);
  OnePassRun run(pass_planes_,
                 [&](const Shard& shard, size_t slot, SlotTotals& totals) {
                   AccumulateDirected(shard, s_set, t_set, out.Slot(slot),
                                      in.Slot(slot), totals, slot);
                 });
  FusedRun* runs[] = {&run};
  const bool ok = Drive(stream, runs, cancel).ok();
  SwapBack(0, out_to_t);
  SwapBack(1, in_from_s);
  return ok ? run.totals().Directed() : DirectedPassResult{};
}

PassEngine& DefaultPassEngine() {
  // Leaked singleton: worker threads must not be joined during static
  // destruction, where other statics they might touch are already gone.
  // lint:allow(naked-new) — leaked singleton
  static PassEngine* engine = new PassEngine(PassEngineOptions{});
  return *engine;
}

}  // namespace densest

#include "core/multi_run.h"

#include <algorithm>
#include <array>
#include <limits>
#include <thread>

#include "core/alive_kernel.h"
#include "core/peel_runs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/pass_cursor.h"

namespace densest {

namespace {

constexpr size_t kSlots = MultiRunEngine::kShardSlots;
/// Sentinel shard index: the task walks the whole round sequentially.
constexpr uint32_t kWholeRound = std::numeric_limits<uint32_t>::max();

/// One degree plane of a fused run: either a single direct vector
/// (unit-weight streams driven run-major — integer-exact sums make every
/// accumulation order the same bits) or kSlots slot vectors reduced by the
/// engines' shared ReduceSlots (general weights, and any stream whose round
/// may be shard-split work-major). In direct mode every slot aliases
/// `values`, so the shard kernel is identical either way — but aliased
/// slots must never be written concurrently, which is what
/// parallel_shards() guards.
struct AccumPlane {
  std::vector<double> values;              // the reduced per-node result
  std::vector<std::vector<double>> slots;  // empty in direct mode

  void Init(size_t n, bool direct) {
    values.assign(n, 0.0);
    if (!direct) {
      slots.assign(kSlots, std::vector<double>(n, 0.0));
    }
  }
  void BeginPass() {
    // Slot vectors are zero by invariant (Reduce re-zeroes them).
    if (slots.empty()) std::fill(values.begin(), values.end(), 0.0);
  }
  bool slotted() const { return !slots.empty(); }
  double* Slot(size_t s) { return slots.empty() ? values.data() : slots[s].data(); }
  void Reduce() {
    if (!slots.empty()) ReduceSlots(slots, values);
  }
};

/// Fused Algorithm 3 run: peel logic + its private accumulators.
class FusedDirectedRun final : public MultiRunEngine::FusedRun {
 public:
  FusedDirectedRun(NodeId n, const Algorithm3Options& options, bool direct)
      : logic_(n, options) {
    out_.Init(n, direct);
    in_.Init(n, direct);
  }

  bool done() const override { return logic_.done(); }
  void BeginPass() override {
    out_.BeginPass();
    in_.BeginPass();
    totals_.Reset();
  }
  bool parallel_shards() const override { return out_.slotted(); }
  void AccumulateShard(std::span<const Edge> shard, size_t slot) override {
    const DirectedPassResult r = AccumulateDirectedShard(
        shard, logic_.s(), logic_.t(), out_.Slot(slot), in_.Slot(slot));
    totals_.Add(slot, r.weight, r.arcs);
  }
  void FinishPass() override {
    out_.Reduce();
    in_.Reduce();
    logic_.ApplyPass(totals_.Directed(), out_.values, in_.values);
  }
  DirectedDensestResult TakeResult() { return logic_.TakeResult(); }

 private:
  Algorithm3Run logic_;
  AccumPlane out_, in_;
  SlotTotals<kSlots> totals_;
};

/// Fused Algorithm 1 run. Honors §6.3 compaction: in kCollectPass mode the
/// shard loop additionally appends survivors (in stream order — the run
/// reports parallel_shards() false for that pass so its shards stay
/// sequential), after which the run finishes over its buffer via
/// FinishOffStream, costing no further physical scans.
class FusedAlg1Run final : public MultiRunEngine::FusedRun {
 public:
  FusedAlg1Run(NodeId n, const Algorithm1Options& options, bool direct)
      : logic_(n, options), cancel_(options.cancel) {
    deg_.Init(n, direct);
  }

  bool done() const override { return logic_.done(); }
  bool wants_stream() const override {
    return !logic_.done() && logic_.mode() != Algorithm1Run::PassMode::kBuffer;
  }
  void BeginPass() override {
    deg_.BeginPass();
    totals_.Reset();
  }
  bool parallel_shards() const override {
    // The collect pass appends survivors in stream order — order a
    // shard-split round would not preserve.
    return deg_.slotted() &&
           logic_.mode() != Algorithm1Run::PassMode::kCollectPass;
  }
  void AccumulateShard(std::span<const Edge> shard, size_t slot) override {
    const bool collect =
        logic_.mode() == Algorithm1Run::PassMode::kCollectPass;
    const UndirectedPassResult r = AccumulateUndirectedShard(
        shard, logic_.alive(), deg_.Slot(slot),
        AppendSurvivors{collect ? &logic_.buffer() : nullptr});
    totals_.Add(slot, r.weight, r.edges);
  }
  void FinishPass() override {
    deg_.Reduce();
    logic_.ApplyPass(totals_.Undirected(), deg_.values);
  }
  void FinishOffStream(PassEngine& engine) override {
    while (!logic_.done()) {
      // A cancelled run stops peeling mid-buffer; Drive's own poll then
      // aborts the sweep before any partial result escapes.
      if (ShouldStop(cancel_)) break;
      UndirectedPassResult stats = engine.RunUndirectedBuffer(
          logic_.buffer(), logic_.alive(), deg_.values, /*compact=*/true,
          cancel_);
      if (ShouldStop(cancel_)) break;
      logic_.ApplyPass(stats, deg_.values);
    }
  }
  UndirectedDensestResult TakeResult() { return logic_.TakeResult(); }

 private:
  Algorithm1Run logic_;
  const CancelToken* cancel_;
  AccumPlane deg_;
  SlotTotals<kSlots> totals_;
};

/// Fused Algorithm 2 run.
class FusedAlg2Run final : public MultiRunEngine::FusedRun {
 public:
  FusedAlg2Run(NodeId n, const Algorithm2Options& options, bool direct)
      : logic_(n, options) {
    deg_.Init(n, direct);
  }

  bool done() const override { return logic_.done(); }
  void BeginPass() override {
    deg_.BeginPass();
    totals_.Reset();
  }
  bool parallel_shards() const override { return deg_.slotted(); }
  void AccumulateShard(std::span<const Edge> shard, size_t slot) override {
    const UndirectedPassResult r =
        AccumulateUndirectedShard(shard, logic_.alive(), deg_.Slot(slot));
    totals_.Add(slot, r.weight, r.edges);
  }
  void FinishPass() override {
    deg_.Reduce();
    logic_.ApplyPass(totals_.Undirected(), deg_.values);
  }
  UndirectedDensestResult TakeResult() { return logic_.TakeResult(); }

 private:
  Algorithm2Run logic_;
  AccumPlane deg_;
  SlotTotals<kSlots> totals_;
};

/// Collects pointers to the concrete runs for Drive().
template <typename RunT>
std::vector<MultiRunEngine::FusedRun*> AsFusedRuns(std::vector<RunT>& states) {
  std::vector<MultiRunEngine::FusedRun*> runs;
  runs.reserve(states.size());
  for (RunT& run : states) runs.push_back(&run);
  return runs;
}

/// The token governing a fused sweep: the first non-null per-run token.
/// The physical scan is shared, so one run cannot be cancelled without
/// stopping the whole sweep; sweep builders set one token on every run.
template <typename OptionsT>
const CancelToken* SweepCancel(const std::vector<OptionsT>& runs) {
  for (const OptionsT& options : runs) {
    if (options.cancel != nullptr) return options.cancel;
  }
  return nullptr;
}

}  // namespace

MultiRunEngine::MultiRunEngine(const MultiRunOptions& options) {
  num_threads_ = options.num_threads;
  fan_out_ = options.fan_out;
  default_cancel_ = options.cancel;
  if (num_threads_ == 0) {
    num_threads_ = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

MultiRunEngine::~MultiRunEngine() = default;

void MultiRunEngine::Dispatch(size_t count,
                              const std::function<void(size_t)>& fn) {
  if (pool_ != nullptr && count > 1) {
    pool_->ParallelFor(count, fn);
  } else {
    for (size_t i = 0; i < count; ++i) fn(i);
  }
}

Status MultiRunEngine::Drive(EdgeStream& stream,
                             std::span<FusedRun* const> runs) {
  return Drive(stream, runs, default_cancel_);
}

Status MultiRunEngine::Drive(EdgeStream& stream,
                             std::span<FusedRun* const> runs,
                             const CancelToken* cancel) {
  if (cancel == nullptr) cancel = default_cancel_;
  last_physical_passes_ = last_logical_passes_ = last_edges_scanned_ = 0;
  batch_.resize(kShardSlots * kShardEdges);
  PassCursor cursor(stream);

  std::vector<FusedRun*> active;
  active.reserve(runs.size());
  auto refresh_active = [&] {
    active.clear();
    for (FusedRun* run : runs) {
      if (run->done()) continue;
      if (!run->wants_stream()) {
        // The run no longer needs the stream (Algorithm 1 compaction):
        // finish it over its private buffer, off the shared scan.
        if (buffer_engine_ == nullptr) {
          buffer_engine_ = std::make_unique<PassEngine>(
              PassEngineOptions{.num_threads = 1});
        }
        run->FinishOffStream(*buffer_engine_);
        continue;
      }
      active.push_back(run);
    }
  };
  refresh_active();

  std::array<std::span<const Edge>, kShardSlots> shards;
  while (!active.empty()) {
    for (FusedRun* run : active) run->BeginPass();
    cursor.BeginPass();
    for (;;) {
      if (ShouldStop(cancel)) break;
      // PassEngine's own shard-boundary schedule, pulled through the
      // cursor so physical-scan accounting stays in one place.
      const size_t count = PassEngine::FillShardRound(
          [&cursor](Edge* scratch, size_t cap) {
            return cursor.NextChunk(scratch, cap);
          },
          batch_.data(), shards);
      if (count == 0) break;
      DENSEST_TRACE_SPAN("core.fused_round");
      DENSEST_METRIC_COUNTER("core.fused_rounds").Inc();
      if (UseWorkMajor(active.size())) {
        // Work-major fan-out: each (run, shard) pair is a task — shard s
        // feeds slot s, so same-run tasks write disjoint slot planes. Runs
        // whose round must stay sequential become one whole-round task.
        task_scratch_.clear();
        for (size_t i = 0; i < active.size(); ++i) {
          if (active[i]->parallel_shards()) {
            for (size_t s = 0; s < count; ++s) {
              task_scratch_.emplace_back(static_cast<uint32_t>(i),
                                         static_cast<uint32_t>(s));
            }
          } else {
            task_scratch_.emplace_back(static_cast<uint32_t>(i), kWholeRound);
          }
        }
        Dispatch(task_scratch_.size(), [&](size_t t) {
          const auto [i, s] = task_scratch_[t];
          if (s == kWholeRound) {
            for (size_t k = 0; k < count; ++k) {
              active[i]->AccumulateShard(shards[k], k);
            }
          } else {
            active[i]->AccumulateShard(shards[s], s);
          }
        });
      } else {
        // Run-major fan-out: each task owns one run's accumulators and
        // walks the round's shards in order, so threads share nothing
        // mutable.
        Dispatch(active.size(), [&](size_t i) {
          for (size_t s = 0; s < count; ++s) {
            active[i]->AccumulateShard(shards[s], s);
          }
        });
      }
      if (count < kShardSlots) break;
    }
    // A failing stream ends the pass early and silently; the accumulated
    // statistics describe a truncated edge set. Abort before peeling on
    // them — partial sweep results are worse than no results.
    if (Status io = stream.status(); !io.ok()) {
      last_physical_passes_ = cursor.passes();
      last_edges_scanned_ = cursor.edges_scanned();
      return io;
    }
    // A cancelled pass is abandoned exactly like a failing stream: the
    // accumulated statistics describe a truncated edge set, so abort
    // before peeling on them. The pool is already drained (Dispatch
    // returns only after every shard task finished), so no thread is left
    // running against freed state.
    if (Status c = CheckCancel(cancel); !c.ok()) {
      last_physical_passes_ = cursor.passes();
      last_edges_scanned_ = cursor.edges_scanned();
      return c;
    }
    // Reduce + peel, also run-major: only run-private state mutates.
    Dispatch(active.size(), [&](size_t i) { active[i]->FinishPass(); });
    refresh_active();
  }

  last_physical_passes_ = cursor.passes();
  last_edges_scanned_ = cursor.edges_scanned();
  return Status::OK();
}

StatusOr<std::vector<DirectedDensestResult>> MultiRunEngine::RunDirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm3Options>& runs) {
  last_physical_passes_ = last_logical_passes_ = last_edges_scanned_ = 0;
  if (runs.empty()) return std::vector<DirectedDensestResult>{};
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");
  for (const Algorithm3Options& options : runs) {
    if (options.epsilon < 0) {
      return Status::InvalidArgument("epsilon must be >= 0");
    }
    if (!(options.c > 0)) return Status::InvalidArgument("c must be > 0");
  }

  const bool direct = UseDirectPlanes(stream, runs.size());
  std::vector<FusedDirectedRun> states;
  states.reserve(runs.size());
  for (const Algorithm3Options& options : runs) {
    states.emplace_back(n, options, direct);
  }
  std::vector<FusedRun*> fused = AsFusedRuns(states);
  if (Status s = Drive(stream, fused, SweepCancel(runs)); !s.ok()) return s;

  std::vector<DirectedDensestResult> results;
  results.reserve(states.size());
  uint64_t logical = 0;
  for (FusedDirectedRun& run : states) {
    results.push_back(run.TakeResult());
    logical += results.back().passes;
  }
  RecordLogicalPasses(logical);
  return results;
}

StatusOr<std::vector<UndirectedDensestResult>> MultiRunEngine::RunUndirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm1Options>& runs) {
  last_physical_passes_ = last_logical_passes_ = last_edges_scanned_ = 0;
  if (runs.empty()) return std::vector<UndirectedDensestResult>{};
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");
  for (const Algorithm1Options& options : runs) {
    if (options.epsilon < 0) {
      return Status::InvalidArgument("epsilon must be >= 0");
    }
  }

  const bool direct = UseDirectPlanes(stream, runs.size());
  std::vector<FusedAlg1Run> states;
  states.reserve(runs.size());
  for (const Algorithm1Options& options : runs) {
    states.emplace_back(n, options, direct);
  }
  std::vector<FusedRun*> fused = AsFusedRuns(states);
  if (Status s = Drive(stream, fused, SweepCancel(runs)); !s.ok()) return s;

  std::vector<UndirectedDensestResult> results;
  results.reserve(states.size());
  uint64_t logical = 0;
  for (FusedAlg1Run& run : states) {
    results.push_back(run.TakeResult());
    logical += results.back().io_passes;
  }
  RecordLogicalPasses(logical);
  return results;
}

StatusOr<std::vector<UndirectedDensestResult>> MultiRunEngine::RunUndirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm2Options>& runs) {
  last_physical_passes_ = last_logical_passes_ = last_edges_scanned_ = 0;
  if (runs.empty()) return std::vector<UndirectedDensestResult>{};
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");
  for (const Algorithm2Options& options : runs) {
    if (options.epsilon < 0) {
      return Status::InvalidArgument("epsilon must be >= 0");
    }
    if (options.min_size > n) {
      return Status::InvalidArgument("min_size exceeds the node count");
    }
  }

  const bool direct = UseDirectPlanes(stream, runs.size());
  std::vector<FusedAlg2Run> states;
  states.reserve(runs.size());
  for (const Algorithm2Options& options : runs) {
    states.emplace_back(n, options, direct);
  }
  std::vector<FusedRun*> fused = AsFusedRuns(states);
  if (Status s = Drive(stream, fused, SweepCancel(runs)); !s.ok()) return s;

  std::vector<UndirectedDensestResult> results;
  results.reserve(states.size());
  uint64_t logical = 0;
  for (FusedAlg2Run& run : states) {
    results.push_back(run.TakeResult());
    logical += results.back().passes;
  }
  RecordLogicalPasses(logical);
  return results;
}

StatusOr<UndirectedDensestResult> MultiRunEngine::RecomputeUndirected(
    EdgeStream& stream, const Algorithm1Options& options) {
  StatusOr<std::vector<UndirectedDensestResult>> results =
      RunUndirectedRuns(stream, std::vector<Algorithm1Options>{options});
  if (!results.ok()) return results.status();
  return std::move((*results)[0]);
}

StatusOr<std::vector<UndirectedDensestResult>> RunAlgorithm1EpsilonSweep(
    EdgeStream& stream, const Algorithm1Options& base,
    const std::vector<double>& epsilons, MultiRunEngine* engine) {
  std::vector<Algorithm1Options> runs;
  runs.reserve(epsilons.size());
  for (double eps : epsilons) {
    Algorithm1Options options = base;
    options.epsilon = eps;
    runs.push_back(options);
  }
  // Same guarantee as RunCSearch: results never depend on fusing. The one
  // shape whose fused accumulation could differ in low-order FP bits —
  // weighted with a CSR view — runs run-by-run instead (`engine`'s scan
  // counters are untouched in that case).
  if (!stream.HasUnitWeights() && stream.UndirectedCsrView() != nullptr) {
    std::vector<UndirectedDensestResult> results;
    results.reserve(runs.size());
    for (const Algorithm1Options& options : runs) {
      StatusOr<UndirectedDensestResult> r = RunAlgorithm1(stream, options);
      if (!r.ok()) return r.status();
      results.push_back(std::move(*r));
    }
    return results;
  }
  if (engine != nullptr) return engine->RunUndirectedRuns(stream, runs);
  MultiRunEngine local{MultiRunOptions{}};
  return local.RunUndirectedRuns(stream, runs);
}

}  // namespace densest

// Copyright 2026 The densest Authors.
// The peel steps of the paper's algorithms and the streaming runs built on
// them.
//
// UndirectedPeel and DirectedPeel make a pass's decisions from that pass's
// degrees and aggregates, however they were computed: the best-so-far
// subgraph, the removal threshold, the peel itself, the trace, the end of
// the run and the result with its band. Every driver calls them — the
// streaming runs below, the sketched run (sketch/sketch_runs.h) and the
// MapReduce drivers (mapreduce/mr_densest.h) — so no two drivers can
// decide a pass differently.
//
// Algorithm{1,2,3}Run each hold ONE streaming run — a peel step plus its
// degree accumulators — and are FusedRuns that PassEngine::Drive takes pass
// by pass: a shard at a time into the accumulators, then the peel step in
// FinishPass. RunAlgorithm{1,2,3} drive one run; the sweeps of
// core/multi_run.h drive many over shared scans. Both go through the same
// class, so a fused run can never diverge from a solo one.

#ifndef DENSEST_CORE_PEEL_RUNS_H_
#define DENSEST_CORE_PEEL_RUNS_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/alive_kernel.h"
#include "core/density.h"
#include "core/pass_engine.h"
#include "graph/subgraph.h"
#include "graph/types.h"

namespace densest {

/// \brief The undirected peel: the alive set S, the densest set S~ seen so
/// far, the pass count and the trace.
class UndirectedPeel {
 public:
  /// `min_size` is Algorithm 2's k: only sets of at least k nodes become
  /// S~, and the run ends once |S| < k (0 for Algorithm 1). `max_passes`
  /// caps the passes (0 = uncapped).
  UndirectedPeel(NodeId n, double epsilon, uint64_t max_passes,
                 bool record_trace, NodeId min_size = 0);

  const NodeSet& alive() const { return alive_; }
  bool done() const { return done_; }

  /// Algorithm 1, one pass: S~ <- S if rho(S) = weight / |S| beats it, then
  /// every alive node with degrees[u] <= 2(1+eps) rho(S) leaves S (and
  /// enters `removed`, when given).
  void Step(std::span<const double> degrees, double weight, EdgeId edges,
            NodeSet* removed = nullptr);

  /// Step in three parts, for peels that pick their own removals. Open
  /// counts the pass, updates S~ and returns the threshold 2(1+eps) rho(S);
  /// Remove takes a member u out of S; Close records the trace and decides
  /// done(): S empty, |S| < k, a pass that removed nothing, or the cap.
  double Open(double weight, EdgeId edges);
  void Remove(NodeId u) {
    alive_.Remove(u);
    ++snap_.removed;
  }
  void Close();

  /// The result: S~, rho(S~), the passes and the trace (call once, after
  /// done()), with Lemma 1's band 2(1+eps) only when the peel ended on its
  /// own: the cap voids the proof.
  UndirectedDensestResult Finish();

 private:
  double epsilon_;
  uint64_t max_passes_;
  bool record_trace_;
  NodeId min_size_;
  NodeSet alive_;
  NodeSet best_;
  double best_density_ = -1.0;
  uint64_t pass_ = 0;
  bool ended_ = false;  // done for its own reason, not the cap
  bool done_ = false;
  PassSnapshot snap_;  // the open pass
  std::vector<PassSnapshot> trace_;
};

/// \brief The directed peel of Algorithm 3 for one ratio c: S, T, the
/// densest pair (S~, T~) seen so far, the pass count and the trace.
class DirectedPeel {
 public:
  DirectedPeel(NodeId n, const Algorithm3Options& options);

  const NodeSet& s() const { return s_; }
  const NodeSet& t() const { return t_; }
  bool done() const { return done_; }

  /// Algorithm 3, one pass: (S~, T~) <- (S, T) if rho(S, T) beats it, then
  /// the side the removal rule picks loses every node at or below
  /// (1+eps) weight / |side| (they enter `removed`, when given).
  /// out_to_t[u] is |E(u, T)| over S, in_from_s[u] is |E(S, u)| over T.
  /// Returns true when it peeled S.
  bool Step(std::span<const double> out_to_t,
            std::span<const double> in_from_s, double weight,
            NodeSet* removed = nullptr);

  /// The result (call once, after done()), with Theorem 6's band
  /// 2(1+eps) only when S or T ran empty: the cap voids the proof.
  DirectedDensestResult Finish();

 private:
  Algorithm3Options options_;
  NodeSet s_;
  NodeSet t_;
  NodeSet best_s_;
  NodeSet best_t_;
  double best_density_ = -1.0;
  uint64_t pass_ = 0;
  bool done_ = false;
  std::vector<DirectedPassSnapshot> trace_;
};

/// \brief One run of Algorithm 1 (undirected peeling, optional §6.3
/// compaction).
///
/// `direct` picks one degree plane instead of kShardSlots slot planes (see
/// PassEngine::DirectPlanes).
class Algorithm1Run final : public FusedRun {
 public:
  /// Where the next pass reads its edges from.
  enum class PassMode {
    kStream,       ///< scan the external stream
    kCollectPass,  ///< scan the stream AND collect survivors in memory
    kBuffer,       ///< scan the collected survivors (compaction kicked in)
  };

  /// The options checks RunAlgorithm1 and the sweeps share.
  static Status Validate(NodeId n, const Algorithm1Options& options);

  Algorithm1Run(NodeId n, const Algorithm1Options& options, bool direct);

  PassMode mode() const { return mode_; }

  bool done() const override { return peel_.done(); }
  std::vector<Edge>* private_edges() override {
    return mode_ == PassMode::kBuffer ? &buffer_ : nullptr;
  }
  void BeginPass() override;
  void AccumulateShard(const Shard& shard, size_t slot) override;
  /// The collect pass appends survivors in stream order, which a
  /// shard-split round would not preserve.
  bool parallel_shards() const override {
    return deg_.slotted() && mode_ != PassMode::kCollectPass;
  }
  /// Reduces the degrees, drops dead edges from the buffer, takes the peel
  /// step and arms compaction.
  void FinishPass() override;

  /// Finalizes the result (call once, after done()).
  UndirectedDensestResult TakeResult();

 private:
  Algorithm1Options options_;
  UndirectedPeel peel_;
  uint64_t io_passes_ = 0;
  PassMode mode_ = PassMode::kStream;
  std::vector<Edge> buffer_;
  AccumPlane deg_;
  SlotTotals totals_;
};

/// \brief One run of Algorithm 2 (at-least-k peeling with a removal quota).
class Algorithm2Run final : public FusedRun {
 public:
  static Status Validate(NodeId n, const Algorithm2Options& options);

  Algorithm2Run(NodeId n, const Algorithm2Options& options, bool direct);

  bool done() const override { return peel_.done(); }
  void BeginPass() override;
  void AccumulateShard(const Shard& shard, size_t slot) override;
  bool parallel_shards() const override { return deg_.slotted(); }
  void FinishPass() override;

  UndirectedDensestResult TakeResult();

 private:
  double epsilon_;
  UndirectedPeel peel_;
  std::vector<NodeId> candidates_;
  AccumPlane deg_;
  SlotTotals totals_;
};

/// \brief One run of Algorithm 3 (directed (S, T) peeling for one ratio c).
class Algorithm3Run final : public FusedRun {
 public:
  static Status Validate(NodeId n, const Algorithm3Options& options);

  Algorithm3Run(NodeId n, const Algorithm3Options& options, bool direct);

  bool done() const override { return peel_.done(); }
  bool directed() const override { return true; }
  void BeginPass() override;
  void AccumulateShard(const Shard& shard, size_t slot) override;
  bool parallel_shards() const override { return out_.slotted(); }
  void FinishPass() override;

  DirectedDensestResult TakeResult() { return peel_.Finish(); }

 private:
  DirectedPeel peel_;
  AccumPlane out_;  // out_to_t over S
  AccumPlane in_;   // in_from_s over T
  SlotTotals totals_;
};

}  // namespace densest

#endif  // DENSEST_CORE_PEEL_RUNS_H_

// Copyright 2026 The densest Authors.
// The runs of the streaming peeling algorithms, one class each for
// Algorithms 1, 2 and 3.
//
// Each class holds ONE run — alive sets, degree accumulators,
// best-so-far subgraph, trace — and is a FusedRun that PassEngine::Drive
// takes pass by pass: a shard at a time into its accumulators, then the
// peel step in FinishPass. RunAlgorithm{1,2,3} drive one run; the sweeps of
// core/multi_run.h drive many over shared scans. Both go through the same
// class, so a fused run can never diverge from a solo one.

#ifndef DENSEST_CORE_PEEL_RUNS_H_
#define DENSEST_CORE_PEEL_RUNS_H_

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

  bool done() const override { return done_; }
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
  /// Reduces the degrees, drops dead edges from the buffer, updates the
  /// best subgraph, peels below-threshold nodes, arms compaction, records
  /// the trace, and decides whether the run is finished.
  void FinishPass() override;

  /// Finalizes the result (call once, after done()).
  UndirectedDensestResult TakeResult();

 private:
  Algorithm1Options options_;
  NodeId n_;
  NodeSet alive_;
  NodeSet best_;
  double best_density_ = -1.0;
  uint64_t pass_ = 0;
  uint64_t io_passes_ = 0;
  PassMode mode_ = PassMode::kStream;
  bool done_ = false;
  std::vector<Edge> buffer_;
  AccumPlane deg_;
  SlotTotals totals_;
  UndirectedDensestResult result_;
};

/// \brief One run of Algorithm 2 (at-least-k peeling with a removal quota).
class Algorithm2Run final : public FusedRun {
 public:
  static Status Validate(NodeId n, const Algorithm2Options& options);

  Algorithm2Run(NodeId n, const Algorithm2Options& options, bool direct);

  bool done() const override { return done_; }
  void BeginPass() override;
  void AccumulateShard(const Shard& shard, size_t slot) override;
  bool parallel_shards() const override { return deg_.slotted(); }
  void FinishPass() override;

  UndirectedDensestResult TakeResult();

 private:
  Algorithm2Options options_;
  NodeId n_;
  NodeSet alive_;
  NodeSet best_;
  double best_density_ = -1.0;
  uint64_t pass_ = 0;
  bool done_ = false;
  std::vector<NodeId> candidates_;
  AccumPlane deg_;
  SlotTotals totals_;
  UndirectedDensestResult result_;
};

/// \brief One run of Algorithm 3 (directed (S, T) peeling for one ratio c).
class Algorithm3Run final : public FusedRun {
 public:
  static Status Validate(NodeId n, const Algorithm3Options& options);

  Algorithm3Run(NodeId n, const Algorithm3Options& options, bool direct);

  bool done() const override { return done_; }
  bool directed() const override { return true; }
  void BeginPass() override;
  void AccumulateShard(const Shard& shard, size_t slot) override;
  bool parallel_shards() const override { return out_.slotted(); }
  void FinishPass() override;

  DirectedDensestResult TakeResult();

 private:
  Algorithm3Options options_;
  NodeId n_;
  NodeSet s_;
  NodeSet t_;
  NodeSet best_s_;
  NodeSet best_t_;
  double best_density_ = -1.0;
  uint64_t pass_ = 0;
  bool done_ = false;
  AccumPlane out_;  // out_to_t over S
  AccumPlane in_;   // in_from_s over T
  SlotTotals totals_;
  DirectedDensestResult result_;
};

}  // namespace densest

#endif  // DENSEST_CORE_PEEL_RUNS_H_

#include "core/peel_runs.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace densest {

namespace {

/// Decides which side to peel under the naive max-degree rule (§4.3):
/// returns true to peel S. Compares the max indegree among B(T) against the
/// max outdegree among A(S), scaled by c.
bool PeelSByMaxDegreeRule(const NodeSet& s, const NodeSet& t,
                          std::span<const double> out_to_t,
                          std::span<const double> in_from_s, double weight,
                          double epsilon, double c) {
  const double s_threshold = (1.0 + epsilon) * weight / s.size();
  const double t_threshold = (1.0 + epsilon) * weight / t.size();
  const NodeId n = s.universe_size();
  double max_out_in_a = 0;  // E(i*, T) over i in A(S)
  double max_in_in_b = 0;   // E(S, j*) over j in B(T)
  for (NodeId u = 0; u < n; ++u) {
    if (s.Contains(u) && out_to_t[u] <= s_threshold) {
      max_out_in_a = std::max(max_out_in_a, out_to_t[u]);
    }
    if (t.Contains(u) && in_from_s[u] <= t_threshold) {
      max_in_in_b = std::max(max_in_in_b, in_from_s[u]);
    }
  }
  if (max_out_in_a == 0) return true;   // removing A(S) is free
  if (max_in_in_b == 0) return false;   // removing B(T) is free
  return max_in_in_b / max_out_in_a >= c;
}

/// Removes every member u of `side` with degrees[u] <= threshold, also
/// inserting it into `removed` when given; returns how many left.
NodeId PeelSide(NodeSet& side, std::span<const double> degrees,
                double threshold, NodeSet* removed) {
  const NodeId n = side.universe_size();
  NodeId count = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (side.Contains(u) && degrees[u] <= threshold) {
      side.Remove(u);
      if (removed != nullptr) removed->Insert(u);
      ++count;
    }
  }
  return count;
}

Status ValidateCommon(NodeId n, double epsilon) {
  if (epsilon < 0) return Status::InvalidArgument("epsilon must be >= 0");
  if (n == 0) return Status::InvalidArgument("graph has no nodes");
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------- UndirectedPeel

UndirectedPeel::UndirectedPeel(NodeId n, double epsilon, uint64_t max_passes,
                               bool record_trace, NodeId min_size)
    : epsilon_(epsilon),
      max_passes_(max_passes),
      record_trace_(record_trace),
      min_size_(min_size),
      alive_(n, /*full=*/true),
      best_(alive_) {
  ended_ = alive_.empty() || alive_.size() < min_size_;
  done_ = ended_;
}

void UndirectedPeel::Step(std::span<const double> degrees, double weight,
                          EdgeId edges, NodeSet* removed) {
  const double threshold = Open(weight, edges);
  // Algorithm 1 line 3: A(S) = { i in S : deg_S(i) <= 2(1+eps) rho(S) }.
  snap_.removed = PeelSide(alive_, degrees, threshold, removed);
  Close();
}

double UndirectedPeel::Open(double weight, EdgeId edges) {
  ++pass_;
  const double rho = weight / static_cast<double>(alive_.size());
  // Algorithm 1 line 5 / Algorithm 2 line 6: S~ tracks the densest
  // intermediate subgraph (of at least k nodes). Pass 1 sees S = V,
  // matching the S~ <- V initialization.
  if (alive_.size() >= min_size_ && rho > best_density_) {
    best_density_ = rho;
    best_ = alive_;
  }
  snap_ = PassSnapshot{.pass = pass_,
                       .nodes = alive_.size(),
                       .edges = edges,
                       .weight = weight,
                       .density = rho,
                       .threshold = 2.0 * (1.0 + epsilon_) * rho,
                       .removed = 0};
  return snap_.threshold;
}

void UndirectedPeel::Close() {
  if (record_trace_) trace_.push_back(snap_);
  // A pass that removed nothing would repeat itself unchanged.
  ended_ = alive_.empty() || alive_.size() < min_size_ || snap_.removed == 0;
  done_ = ended_ || (max_passes_ != 0 && pass_ >= max_passes_);
}

UndirectedDensestResult UndirectedPeel::Finish() {
  UndirectedDensestResult result;
  result.nodes = best_.ToVector();
  result.density = best_density_ < 0 ? 0.0 : best_density_;
  result.passes = pass_;
  // Lemma 1: rho* <= 2(1+eps) rho(S~).
  if (ended_) result.certified_band = 2.0 * (1.0 + epsilon_);
  result.trace = std::move(trace_);
  return result;
}

// ------------------------------------------------------------ DirectedPeel

DirectedPeel::DirectedPeel(NodeId n, const Algorithm3Options& options)
    : options_(options),
      s_(n, /*full=*/true),
      t_(n, /*full=*/true),
      best_s_(s_),
      best_t_(t_) {
  done_ = s_.empty() || t_.empty();
}

bool DirectedPeel::Step(std::span<const double> out_to_t,
                        std::span<const double> in_from_s, double weight,
                        NodeSet* removed) {
  ++pass_;
  const double rho =
      weight / std::sqrt(static_cast<double>(s_.size()) *
                         static_cast<double>(t_.size()));
  // Algorithm 3 line 10: track the densest intermediate pair.
  if (rho > best_density_) {
    best_density_ = rho;
    best_s_ = s_;
    best_t_ = t_;
  }

  bool peel_s;
  if (options_.rule == DirectedRemovalRule::kSizeRatio) {
    // Algorithm 3 line 3: drive |S|/|T| toward c.
    peel_s = static_cast<double>(s_.size()) / static_cast<double>(t_.size()) >=
             options_.c;
  } else {
    peel_s = PeelSByMaxDegreeRule(s_, t_, out_to_t, in_from_s, weight,
                                  options_.epsilon, options_.c);
  }
  DirectedPassSnapshot snap{.pass = pass_,
                            .s_size = s_.size(),
                            .t_size = t_.size(),
                            .weight = weight,
                            .density = rho,
                            .removed_from_s = peel_s};
  NodeSet& side = peel_s ? s_ : t_;
  const double threshold = (1.0 + options_.epsilon) * weight /
                           static_cast<double>(side.size());
  snap.removed =
      PeelSide(side, peel_s ? out_to_t : in_from_s, threshold, removed);

  if (options_.record_trace) trace_.push_back(snap);
  done_ = s_.empty() || t_.empty() ||
          (options_.max_passes != 0 && pass_ >= options_.max_passes);
  return peel_s;
}

DirectedDensestResult DirectedPeel::Finish() {
  DirectedDensestResult result;
  result.s_nodes = best_s_.ToVector();
  result.t_nodes = best_t_.ToVector();
  result.density = best_density_ < 0 ? 0.0 : best_density_;
  result.passes = pass_;
  result.c = options_.c;
  // Theorem 6: rho*(c) <= 2(1+eps) rho(S~, T~) at this ratio c.
  if (s_.empty() || t_.empty()) {
    result.certified_band = 2.0 * (1.0 + options_.epsilon);
  }
  result.trace = std::move(trace_);
  return result;
}

// ------------------------------------------------------------- Algorithm 1

Status Algorithm1Run::Validate(NodeId n, const Algorithm1Options& options) {
  return ValidateCommon(n, options.epsilon);
}

Algorithm1Run::Algorithm1Run(NodeId n, const Algorithm1Options& options,
                             bool direct)
    : options_(options),
      peel_(n, options.epsilon, options.max_passes, options.record_trace) {
  deg_.Init(n, direct);
}

void Algorithm1Run::BeginPass() {
  deg_.BeginPass();
  totals_.Reset();
}

void Algorithm1Run::AccumulateShard(const Shard& shard, size_t slot) {
  double* deg = deg_.Slot(slot);
  if (mode_ != PassMode::kCollectPass) {
    AccumulateUndirected(shard, peel_.alive(), deg, totals_, slot);
    return;
  }
  double weight = 0.0;
  EdgeId edges = 0;
  VisitSurvivors(shard, peel_.alive(), [&](const Edge& e) {
    deg[e.u] += e.w;
    deg[e.v] += e.w;
    weight += e.w;
    ++edges;
    buffer_.push_back(e);
  });
  totals_.Add(slot, weight, edges);
}

void Algorithm1Run::FinishPass() {
  deg_.Reduce();
  const UndirectedPassResult stats = totals_.Undirected();
  if (mode_ == PassMode::kBuffer) {
    // Pure in-memory pass (§6.3): drop the edges this pass found dead, so
    // the buffer keeps shrinking with the graph (order is kept).
    std::erase_if(buffer_, [&](const Edge& e) {
      return !peel_.alive().ContainsBoth(e.u, e.v);
    });
  } else {
    ++io_passes_;
  }
  if (mode_ == PassMode::kCollectPass) mode_ = PassMode::kBuffer;

  peel_.Step(deg_.values, stats.weight, stats.edges);

  // Arm compaction for the next pass once the survivor count is small.
  // (The surviving edge count after removal is at most stats.edges.)
  if (mode_ == PassMode::kStream && options_.compact_below_edges > 0 &&
      stats.edges <= options_.compact_below_edges) {
    mode_ = PassMode::kCollectPass;
    buffer_.reserve(static_cast<size_t>(stats.edges));
  }
}

UndirectedDensestResult Algorithm1Run::TakeResult() {
  UndirectedDensestResult result = peel_.Finish();
  result.io_passes = io_passes_;
  return result;
}

// ------------------------------------------------------------- Algorithm 2

Status Algorithm2Run::Validate(NodeId n, const Algorithm2Options& options) {
  if (Status s = ValidateCommon(n, options.epsilon); !s.ok()) return s;
  if (options.min_size > n) {
    return Status::InvalidArgument("min_size exceeds the node count");
  }
  return Status::OK();
}

Algorithm2Run::Algorithm2Run(NodeId n, const Algorithm2Options& options,
                             bool direct)
    : epsilon_(options.epsilon),
      peel_(n, options.epsilon, options.max_passes, options.record_trace,
            options.min_size) {
  deg_.Init(n, direct);
}

void Algorithm2Run::BeginPass() {
  deg_.BeginPass();
  totals_.Reset();
}

void Algorithm2Run::AccumulateShard(const Shard& shard, size_t slot) {
  AccumulateUndirected(shard, peel_.alive(), deg_.Slot(slot), totals_, slot);
}

void Algorithm2Run::FinishPass() {
  deg_.Reduce();
  const std::vector<double>& degrees = deg_.values;
  const UndirectedPassResult stats = totals_.Undirected();
  const double threshold = peel_.Open(stats.weight, stats.edges);
  const NodeSet& alive = peel_.alive();

  // A~(S): the below-threshold candidates.
  candidates_.clear();
  for (NodeId u = 0; u < alive.universe_size(); ++u) {
    if (alive.Contains(u) && degrees[u] <= threshold) {
      candidates_.push_back(u);
    }
  }

  // Algorithm 2 line 4: remove only |A(S)| = eps/(1+eps) |S| of them —
  // the lowest-degree ones — so some intermediate set lands near size k.
  const double removal_fraction = epsilon_ / (1.0 + epsilon_);
  NodeId quota = static_cast<NodeId>(std::ceil(
      removal_fraction * static_cast<double>(alive.size())));
  quota = std::max<NodeId>(quota, 1);
  quota = std::min<NodeId>(quota, static_cast<NodeId>(candidates_.size()));
  if (quota < candidates_.size()) {
    std::nth_element(candidates_.begin(), candidates_.begin() + quota,
                     candidates_.end(), [&](NodeId a, NodeId b) {
                       return degrees[a] != degrees[b]
                                  ? degrees[a] < degrees[b]
                                  : a < b;
                     });
    candidates_.resize(quota);
  }
  for (NodeId u : candidates_) peel_.Remove(u);
  peel_.Close();
}

UndirectedDensestResult Algorithm2Run::TakeResult() {
  UndirectedDensestResult result = peel_.Finish();
  // Theorem 4: rho*_{>=k} <= 3(1+eps) rho(S~) for the at-least-k problem,
  // where the peel earned a band at all.
  if (result.certified_band > 0) {
    result.certified_band = 3.0 * (1.0 + epsilon_);
  }
  result.io_passes = result.passes;
  return result;
}

// ------------------------------------------------------------- Algorithm 3

Status Algorithm3Run::Validate(NodeId n, const Algorithm3Options& options) {
  if (!(options.c > 0)) return Status::InvalidArgument("c must be > 0");
  return ValidateCommon(n, options.epsilon);
}

Algorithm3Run::Algorithm3Run(NodeId n, const Algorithm3Options& options,
                             bool direct)
    : peel_(n, options) {
  out_.Init(n, direct);
  in_.Init(n, direct);
}

void Algorithm3Run::BeginPass() {
  out_.BeginPass();
  in_.BeginPass();
  totals_.Reset();
}

void Algorithm3Run::AccumulateShard(const Shard& shard, size_t slot) {
  AccumulateDirected(shard, peel_.s(), peel_.t(), out_.Slot(slot),
                     in_.Slot(slot), totals_, slot);
}

void Algorithm3Run::FinishPass() {
  out_.Reduce();
  in_.Reduce();
  peel_.Step(out_.values, in_.values, totals_.Directed().weight);
}

}  // namespace densest

// Copyright 2026 The densest Authors.
// The one answer type every engine serves through. A densest-subgraph
// query — against the dynamic maintenance service, the published serving
// plane, or a batch peeling run — always resolves to the same four facts:
// a real induced density (a lower bound on rho*), a certified upper bound
// on rho*, the size of the witnessing node set, and whether the
// certificate currently holds. Benches and tests compare bands through
// this struct instead of per-engine field names; the witnessing node set
// itself stays beside it (DynamicDensest::DensestNodes(), the batch
// results' `nodes` vectors, AnswerPlane's membership bitset) because its
// representation is the one thing the engines legitimately disagree on.

#ifndef DENSEST_CORE_ANSWER_H_
#define DENSEST_CORE_ANSWER_H_

#include <cstdint>
#include <span>

#include "graph/types.h"

namespace densest {

/// \brief A point-in-time densest-subgraph answer.
struct Answer {
  /// Density of the witnessing node set (a real induced density — always a
  /// lower bound on rho*).
  double density = 0;
  /// Certified upper bound: rho* < upper_bound (meaningful only while
  /// certified; equals 0 for an empty graph).
  double upper_bound = 0;
  /// |S| of the witnessing node set.
  NodeId size = 0;
  /// False when the answer carries no certificate: a dynamic engine under
  /// DynamicFallback::kNever with a degraded window, or a batch result
  /// whose driver recorded no approximation band (a sketched run, or one
  /// its max_passes cap stopped before peeling ended).
  bool certified = true;
  /// True while a deadline-cancelled recompute is pending in the dynamic
  /// engine: the answer is still certified, but upper_bound is the last
  /// certificate widened by the sound growth bound (rho* rises by at most
  /// 1/2 per insertion and never by a deletion), so the band loosens with
  /// every insert until the recompute re-arms and completes. Always false
  /// for batch results.
  bool stale = false;
  /// Publication epoch. 0 for answers read directly off an engine or a
  /// batch run; answers read through an AnswerPlane (serve/answer_plane.h)
  /// carry the strictly increasing epoch of the publication they were
  /// snapshotted from, so a reader can tell two otherwise identical
  /// answers apart and a test can match an observed answer to the exact
  /// writer publication it came from.
  uint64_t epoch = 0;
};

/// \brief Where a driver publishes settled answers for concurrent readers.
/// The seam between the single-writer world (dynamic/replay.cc publishes
/// after each apply run) and the serving world (serve/answer_plane.h is
/// the production implementation) — declared here so dynamic/ never
/// depends on serve/. Publish is writer-only; implementations make the
/// published state readable from other threads on their own terms.
class AnswerSink {
 public:
  virtual ~AnswerSink() = default;
  /// Publishes `answer` + its witnessing node set as of `prefix_updates`
  /// applied updates (an absolute update-stream position).
  virtual void Publish(const Answer& answer, std::span<const NodeId> members,
                       uint64_t prefix_updates) = 0;
};

}  // namespace densest

#endif  // DENSEST_CORE_ANSWER_H_

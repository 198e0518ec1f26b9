// Copyright 2026 The densest Authors.
// The semi-streaming substrate: edges arrive one at a time; algorithms may
// rewind and take multiple passes. Only O(n) state may be kept between
// passes (the streams themselves may be disk- or generator-backed).

#ifndef DENSEST_STREAM_EDGE_STREAM_H_
#define DENSEST_STREAM_EDGE_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/retry.h"
#include "common/status.h"
#include "graph/types.h"

namespace densest {

class UndirectedGraph;
class DirectedGraph;

/// \brief A rewindable stream of edges — the input model of all streaming
/// algorithms in this library (paper §1.1: nodes known in advance, edges
/// streamed; multiple passes allowed).
///
/// Contract: after Reset(), successive reads yield every edge of the graph
/// exactly once (in an arbitrary but fixed order), then nothing.
///
/// A stream implements one read, NextView; NextBatch and Next are derived
/// from it here, so each stream's decode and sticky-status logic is written
/// once. The three spellings share one cursor and interleave freely. The
/// derived two stay virtual only so a decorator that observes every read
/// (a timing wrapper) can intercept whichever spelling its caller uses.
class EdgeStream {
 public:
  virtual ~EdgeStream() = default;

  /// Rewinds to the beginning of the stream (starts a new pass).
  virtual void Reset() = 0;

  /// The one read: returns a view of up to `cap` edges and advances the
  /// cursor; empty only at end of stream (mid-stream calls may return fewer
  /// than `cap` but never none). The view is either `scratch` (which must
  /// hold `cap` edges), filled by the stream, or the stream's own storage
  /// (in-memory edges, a replayed cache), so a pass over memory copies
  /// nothing. It stays valid until Reset() or until `scratch` is reused by
  /// another call, so callers that hold several views concurrently (the
  /// pass engine's shard rounds) must pass distinct scratch regions.
  virtual std::span<const Edge> NextView(Edge* scratch, size_t cap) = 0;

  /// Copies up to `cap` edges into `buf` and returns how many; 0 only at
  /// end of stream. NextView into `buf`, copied only when the view is not
  /// `buf` already.
  virtual size_t NextBatch(Edge* buf, size_t cap);

  /// Produces the next edge into *e; returns false at end of stream.
  virtual bool Next(Edge* e) { return NextBatch(e, 1) == 1; }

  /// Health of the stream. A read signals "no more edges" by returning
  /// nothing, which deliberately conflates end-of-pass with mid-pass
  /// failure (a disk read error, a truncated file); a pass that ended
  /// early would otherwise yield a plausible-looking density computed from
  /// a silently truncated edge set. Streams that can fail set a sticky
  /// error here, and every pass driver checks it after draining a pass,
  /// aborting the run with the error instead of peeling on bad statistics.
  /// In-memory and generator streams cannot fail and keep the OK default.
  virtual Status status() const { return Status::OK(); }

  /// Outcomes of the retry loop at this stream's IO seam: transient
  /// (kUnavailable) faults that were retried, healed, or exhausted. All
  /// zero for streams that cannot fail. Read here, the one store, so a
  /// run that limped through transient faults is distinguishable from a
  /// clean one.
  virtual IoRetryStats io_retry_stats() const { return {}; }

  /// True when every edge is guaranteed to carry weight exactly 1.0.
  /// Unit-weight sums are exact in double precision, so the pass engine may
  /// accumulate them in any order and still be bit-reproducible; returning
  /// false (the conservative default) merely selects the slower
  /// order-deterministic path.
  virtual bool HasUnitWeights() const { return false; }

  /// CSR escape hatches: a stream backed by an in-memory CSR graph may
  /// expose it so the pass engine can run its cache-friendly kernel over
  /// the adjacency arrays instead of materializing Edge records. The
  /// exposed graph must describe exactly the edges a pass would yield.
  virtual const UndirectedGraph* UndirectedCsrView() const { return nullptr; }
  virtual const DirectedGraph* DirectedCsrView() const { return nullptr; }

  /// Number of nodes in the graph (known in advance per the semi-streaming
  /// model).
  virtual NodeId num_nodes() const = 0;

  /// Number of edges per pass, if known (0 if unknown).
  virtual EdgeId SizeHint() const { return 0; }
};

/// Runs `fn` on every edge of one full pass (Reset + drain), reading the
/// stream in NextView chunks.
template <typename Fn>
void ForEachEdge(EdgeStream& stream, Fn&& fn) {
  constexpr size_t kChunk = 1024;
  Edge scratch[kChunk];
  stream.Reset();
  for (std::span<const Edge> view = stream.NextView(scratch, kChunk);
       !view.empty(); view = stream.NextView(scratch, kChunk)) {
    for (const Edge& e : view) fn(e);
  }
}

}  // namespace densest

#endif  // DENSEST_STREAM_EDGE_STREAM_H_

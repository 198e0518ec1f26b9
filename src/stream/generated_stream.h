// Copyright 2026 The densest Authors.
// Generator-backed edge streams: the edges are *recomputed* on every pass
// instead of stored anywhere. This is the extreme point of the
// semi-streaming model — O(1) stream state — and is how experiments beyond
// RAM size can still be driven deterministically.

#ifndef DENSEST_STREAM_GENERATED_STREAM_H_
#define DENSEST_STREAM_GENERATED_STREAM_H_

#include "common/random.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief Streams the edges of an Erdős–Rényi G(n, p) graph using
/// Batagelj–Brandes geometric skipping, regenerating the identical edge
/// sequence on every pass from the seed. Nothing is materialized: state is
/// a few machine words.
class GnpEdgeStream : public EdgeStream {
 public:
  /// G(n, p) with the given seed; the same (n, p, seed) triple always
  /// yields the same graph.
  GnpEdgeStream(NodeId n, double p, uint64_t seed);

  void Reset() override;
  /// Regenerates into `scratch`.
  std::span<const Edge> NextView(Edge* scratch, size_t cap) override;
  bool HasUnitWeights() const override { return true; }
  NodeId num_nodes() const override { return n_; }

 private:
  bool GenerateNext(Edge* e);

  NodeId n_;
  double p_;
  uint64_t seed_;
  double log1mp_;
  Rng rng_;
  int64_t u_ = -1;
  int64_t v_ = 1;
  bool exhausted_ = false;
};

/// \brief Streams a deterministic circulant d-regular graph on n nodes,
/// computing each edge from its index. Zero storage; useful for the Lemma 5
/// pass-lower-bound experiments at sizes where materializing the blocks
/// would be wasteful.
class CirculantEdgeStream : public EdgeStream {
 public:
  /// Requires d even and d < n (the matching case of odd d is only needed
  /// by the materialized generator).
  CirculantEdgeStream(NodeId n, NodeId d);

  void Reset() override;
  /// Computes into `scratch`.
  std::span<const Edge> NextView(Edge* scratch, size_t cap) override;
  bool HasUnitWeights() const override { return true; }
  NodeId num_nodes() const override { return n_; }
  EdgeId SizeHint() const override {
    return static_cast<EdgeId>(n_) * (d_ / 2);
  }

 private:
  NodeId n_, d_;
  NodeId node_ = 0;
  NodeId offset_ = 1;
};

}  // namespace densest

#endif  // DENSEST_STREAM_GENERATED_STREAM_H_

// Copyright 2026 The densest Authors.
// In-memory EdgeStream implementations: over an EdgeList and over CSR graphs.

#ifndef DENSEST_STREAM_MEMORY_STREAM_H_
#define DENSEST_STREAM_MEMORY_STREAM_H_

#include <cstddef>

#include "graph/directed_graph.h"
#include "graph/edge_list.h"
#include "graph/undirected_graph.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief Streams the entries of an EdgeList in order. The EdgeList must
/// outlive the stream.
class EdgeListStream : public EdgeStream {
 public:
  explicit EdgeListStream(const EdgeList& edges) : edges_(&edges) {}

  void Reset() override { pos_ = 0; }
  /// Views straight into the EdgeList's storage — a pass copies nothing.
  std::span<const Edge> NextView(Edge* scratch, size_t cap) override;
  /// Scans the edge list once (cached) to discover exact unit weights.
  bool HasUnitWeights() const override;
  NodeId num_nodes() const override { return edges_->num_nodes(); }
  EdgeId SizeHint() const override { return edges_->num_edges(); }

 private:
  const EdgeList* edges_;
  size_t pos_ = 0;
  mutable int unit_weights_ = -1;  // -1 unknown, else 0/1
};

/// \brief Streams each undirected edge of a CSR graph exactly once
/// (emitting {u, v} from u's adjacency when v >= u). The graph must outlive
/// the stream.
class UndirectedGraphStream : public EdgeStream {
 public:
  explicit UndirectedGraphStream(const UndirectedGraph& g) : g_(&g) {}

  void Reset() override {
    node_ = 0;
    idx_ = 0;
  }
  std::span<const Edge> NextView(Edge* scratch, size_t cap) override;
  bool HasUnitWeights() const override { return !g_->is_weighted(); }
  const UndirectedGraph* UndirectedCsrView() const override { return g_; }
  NodeId num_nodes() const override { return g_->num_nodes(); }
  EdgeId SizeHint() const override { return g_->num_edges(); }

 private:
  const UndirectedGraph* g_;
  NodeId node_ = 0;
  size_t idx_ = 0;
};

/// \brief Streams each arc of a CSR directed graph exactly once. The graph
/// must outlive the stream.
class DirectedGraphStream : public EdgeStream {
 public:
  explicit DirectedGraphStream(const DirectedGraph& g) : g_(&g) {}

  void Reset() override {
    node_ = 0;
    idx_ = 0;
  }
  std::span<const Edge> NextView(Edge* scratch, size_t cap) override;
  bool HasUnitWeights() const override { return !g_->is_weighted(); }
  const DirectedGraph* DirectedCsrView() const override { return g_; }
  NodeId num_nodes() const override { return g_->num_nodes(); }
  EdgeId SizeHint() const override { return g_->num_edges(); }

 private:
  const DirectedGraph* g_;
  NodeId node_ = 0;
  size_t idx_ = 0;
};

}  // namespace densest

#endif  // DENSEST_STREAM_MEMORY_STREAM_H_

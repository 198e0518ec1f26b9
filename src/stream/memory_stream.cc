#include "stream/memory_stream.h"

#include <algorithm>

namespace densest {

std::span<const Edge> EdgeListStream::NextView(Edge* /*scratch*/, size_t cap) {
  const std::vector<Edge>& edges = edges_->edges();
  const size_t take = std::min(cap, edges.size() - pos_);
  std::span<const Edge> view(edges.data() + pos_, take);
  pos_ += take;
  return view;
}

bool EdgeListStream::HasUnitWeights() const {
  if (unit_weights_ < 0) {
    unit_weights_ = 1;
    for (const Edge& e : edges_->edges()) {
      if (e.w != 1.0) {
        unit_weights_ = 0;
        break;
      }
    }
  }
  return unit_weights_ != 0;
}

std::span<const Edge> UndirectedGraphStream::NextView(Edge* scratch,
                                                      size_t cap) {
  // Hoists the per-edge span construction out of the loop: the CSR row is
  // fetched once per node and drained with scalar index arithmetic.
  size_t produced = 0;
  const NodeId n = g_->num_nodes();
  while (produced < cap && node_ < n) {
    auto nbrs = g_->Neighbors(node_);
    auto ws = g_->NeighborWeights(node_);
    const bool weighted = !ws.empty();
    while (produced < cap && idx_ < nbrs.size()) {
      NodeId v = nbrs[idx_];
      if (v >= node_) {
        scratch[produced].u = node_;
        scratch[produced].v = v;
        scratch[produced].w = weighted ? ws[idx_] : 1.0;
        ++produced;
      }
      ++idx_;
    }
    if (idx_ >= nbrs.size()) {
      ++node_;
      idx_ = 0;
    }
  }
  return {scratch, produced};
}

std::span<const Edge> DirectedGraphStream::NextView(Edge* scratch,
                                                    size_t cap) {
  size_t produced = 0;
  const NodeId n = g_->num_nodes();
  while (produced < cap && node_ < n) {
    auto nbrs = g_->OutNeighbors(node_);
    auto ws = g_->OutNeighborWeights(node_);
    const bool weighted = !ws.empty();
    const size_t take = std::min(cap - produced, nbrs.size() - idx_);
    for (size_t i = 0; i < take; ++i) {
      scratch[produced + i].u = node_;
      scratch[produced + i].v = nbrs[idx_ + i];
      scratch[produced + i].w = weighted ? ws[idx_ + i] : 1.0;
    }
    produced += take;
    idx_ += take;
    if (idx_ >= nbrs.size()) {
      ++node_;
      idx_ = 0;
    }
  }
  return {scratch, produced};
}

}  // namespace densest

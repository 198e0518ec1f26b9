// Copyright 2026 The densest Authors.
// Accounting for the streaming model: passes, edges scanned, IO retries.

#ifndef DENSEST_STREAM_PASS_STATS_H_
#define DENSEST_STREAM_PASS_STATS_H_

#include <cstdint>
#include <string>

#include "stream/edge_stream.h"

namespace densest {

/// \brief Counters a streaming algorithm accumulates while consuming a
/// stream. Passes are counted on Reset(); edges on Next().
struct PassStats {
  uint64_t passes = 0;
  uint64_t edges_scanned = 0;
  /// Transient IO faults retried / healed by the stream's retry loop (see
  /// common/retry.h): a run that limped through transient faults is
  /// observably different from a clean one even when both succeed.
  uint64_t io_retries = 0;
  uint64_t io_retries_healed = 0;

  std::string ToString() const;
};

/// \brief Decorator that counts passes and edges flowing through an
/// underlying stream. Algorithms take an EdgeStream&; wrapping it in a
/// CountingEdgeStream makes the pass/edge accounting externally visible.
class CountingEdgeStream : public EdgeStream {
 public:
  CountingEdgeStream(EdgeStream& inner, PassStats& stats)
      : inner_(&inner), stats_(&stats) {}

  void Reset() override {
    ++stats_->passes;
    inner_->Reset();
    SyncRetryStats();
  }
  bool Next(Edge* e) override {
    bool has = inner_->Next(e);
    if (has) {
      ++stats_->edges_scanned;
    } else {
      SyncRetryStats();  // end of pass: fold in the inner stream's retries
    }
    return has;
  }
  size_t NextBatch(Edge* buf, size_t cap) override {
    size_t got = inner_->NextBatch(buf, cap);
    stats_->edges_scanned += got;
    if (got == 0) SyncRetryStats();
    return got;
  }
  std::span<const Edge> NextView(Edge* scratch, size_t cap) override {
    std::span<const Edge> view = inner_->NextView(scratch, cap);
    stats_->edges_scanned += view.size();
    if (view.empty()) SyncRetryStats();
    return view;
  }
  bool HasUnitWeights() const override { return inner_->HasUnitWeights(); }
  Status status() const override { return inner_->status(); }
  IoRetryStats io_retry_stats() const override {
    return inner_->io_retry_stats();
  }
  // The CSR views are deliberately NOT forwarded: the pass engine's CSR
  // kernel reads the graph without flowing edges through this decorator,
  // which would silently break the edges_scanned accounting.
  NodeId num_nodes() const override { return inner_->num_nodes(); }
  EdgeId SizeHint() const override { return inner_->SizeHint(); }

 private:
  // The inner stream's retry counters are cumulative since construction;
  // copying them (not adding) at pass boundaries keeps PassStats exact no
  // matter how many passes or syncs happen.
  void SyncRetryStats() {
    const IoRetryStats r = inner_->io_retry_stats();
    stats_->io_retries = r.retries;
    stats_->io_retries_healed = r.healed;
  }

  EdgeStream* inner_;
  PassStats* stats_;
};

}  // namespace densest

#endif  // DENSEST_STREAM_PASS_STATS_H_

// Copyright 2026 The densest Authors.
// Bridges the streaming substrate into the MapReduce engine: a
// StreamRecordSource chunks any EdgeStream — binary file, Gnp/circulant
// generator, in-memory edge list — into map-task input records through the
// stream's one read, NextView, and counts the physical scans it starts.

#ifndef DENSEST_MAPREDUCE_STREAM_SOURCE_H_
#define DENSEST_MAPREDUCE_STREAM_SOURCE_H_

#include <vector>

#include "graph/types.h"
#include "mapreduce/job.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief RecordSource over an EdgeStream: each Reset() begins one physical
/// scan of the stream; FillChunk converts the stream's edge views into
/// (first endpoint; second endpoint) records. Weights are dropped — the
/// §5.2 MR jobs are unweighted. The stream must outlive the source.
class StreamRecordSource : public RecordSource<NodeId, NodeId> {
 public:
  explicit StreamRecordSource(EdgeStream& stream) : stream_(&stream) {}

  /// Wire size of one §5.2 edge record on the modeled DFS — the packed
  /// (u:u32, v:u32) record of the binary edge-file format. Every stream
  /// type is charged this uniformly, so the modeled scan IO is a pure
  /// function of the record count, not of which backend happened to serve
  /// the scan.
  static constexpr uint64_t kDfsRecordBytes = 2 * sizeof(NodeId);

  void Reset() override {
    stream_->Reset();
    ++scans_;
  }
  size_t FillChunk(KV<NodeId, NodeId>* buf, size_t cap) override;
  uint64_t SizeHint() const override { return stream_->SizeHint(); }
  /// Forwards the stream's sticky IO health; the engine aborts the job on
  /// a truncated scan instead of reducing over partial data.
  Status status() const override { return stream_->status(); }
  /// kDfsRecordBytes per record delivered, across all scans.
  uint64_t bytes_scanned() const override { return bytes_scanned_; }
  /// Forwards the stream's retry-loop outcomes (transient faults healed
  /// by the prefetch retry loop show up in JobStats::io_retries).
  IoRetryStats io_retry_stats() const override {
    return stream_->io_retry_stats();
  }
  /// Physical scans of the stream started so far (Reset calls).
  uint64_t scans() const { return scans_; }

 private:
  EdgeStream* stream_;
  std::vector<Edge> scratch_;
  uint64_t scans_ = 0;
  uint64_t bytes_scanned_ = 0;
};

}  // namespace densest

#endif  // DENSEST_MAPREDUCE_STREAM_SOURCE_H_

// Copyright 2026 The densest Authors.
// The dynamic-stream substrate: a timestamped sequence of edge insertions
// and deletions, the input model of the incremental maintenance service
// (dynamic/dynamic_densest.h). Where EdgeStream freezes the edge set and
// lets algorithms re-scan it, an UpdateStream is consumed once, forward
// only — the graph it describes exists only as the running prefix of its
// updates (McGregor et al., arXiv:1506.04417; Bhattacharya et al.,
// arXiv:1504.02268).

#ifndef DENSEST_STREAM_UPDATE_STREAM_H_
#define DENSEST_STREAM_UPDATE_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "graph/types.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief Whether an update adds or removes its edge.
enum class UpdateKind : uint32_t {
  kInsert = 0,
  kDelete = 1,
};

/// \brief One timestamped edge update. 32-bit kind and an explicit
/// reserved word keep the struct free of hidden padding, so binary update
/// files written by raw struct IO are byte-deterministic.
struct EdgeUpdate {
  NodeId u = 0;
  NodeId v = 0;
  uint32_t kind = 0;      ///< UpdateKind as its underlying integer.
  uint32_t reserved = 0;  ///< Always 0 on the wire.
  uint64_t timestamp = 0; ///< Logical tick; strictly increasing per stream.

  bool is_insert() const {
    return kind == static_cast<uint32_t>(UpdateKind::kInsert);
  }
  bool operator==(const EdgeUpdate& o) const {
    return u == o.u && v == o.v && kind == o.kind && timestamp == o.timestamp;
  }
};
static_assert(sizeof(EdgeUpdate) == 24, "EdgeUpdate must be packed");

/// Convenience constructors for the two update kinds.
inline EdgeUpdate InsertUpdate(NodeId u, NodeId v, uint64_t timestamp = 0) {
  return EdgeUpdate{u, v, static_cast<uint32_t>(UpdateKind::kInsert), 0,
                    timestamp};
}
inline EdgeUpdate DeleteUpdate(NodeId u, NodeId v, uint64_t timestamp = 0) {
  return EdgeUpdate{u, v, static_cast<uint32_t>(UpdateKind::kDelete), 0,
                    timestamp};
}

/// \brief A replayable stream of edge updates.
///
/// Contract mirrors EdgeStream: after Reset(), successive Next() calls
/// yield every update exactly once in timestamp order, then return false.
/// Streams that can fail (disk-backed) carry the same sticky status()
/// error model: end-of-stream and mid-stream failure both present as "no
/// more updates", and every consumer must check status() after draining —
/// maintaining a density over a silently truncated update sequence is the
/// dynamic analogue of the truncated-pass bug the EdgeStream model guards.
class UpdateStream {
 public:
  virtual ~UpdateStream() = default;

  /// Rewinds to the first update (starts a new replay).
  virtual void Reset() = 0;

  /// Produces the next update into *u; returns false at end of stream.
  virtual bool Next(EdgeUpdate* u) = 0;

  /// Produces up to `cap` updates into `buf` and returns how many were
  /// written; 0 only at end of stream. The base implementation loops over
  /// Next(); concrete streams override it to amortize the per-update
  /// virtual dispatch (the replay driver's hot path only calls this).
  virtual size_t NextBatch(EdgeUpdate* buf, size_t cap);

  /// Skips the next `n` updates without delivering them — the restore path
  /// uses this to resume a replay from a snapshot's saved cursor. The base
  /// implementation drains through NextBatch, which is O(n) but keeps any
  /// generator state (e.g. the sliding window's FIFO) consistent; seekable
  /// streams override it with an O(1) seek. Returns how many updates were
  /// actually skipped (fewer than `n` only at end of stream or on error).
  virtual uint64_t Skip(uint64_t n);

  /// Sticky health of the stream; see EdgeStream::status().
  virtual Status status() const { return Status::OK(); }

  /// Retry-loop outcomes at this stream's IO seam; see
  /// EdgeStream::io_retry_stats().
  virtual IoRetryStats io_retry_stats() const { return {}; }

  /// Number of nodes in the graph (known in advance, as in the
  /// semi-streaming model; updates never grow the node universe).
  virtual NodeId num_nodes() const = 0;

  /// Updates per replay, if known (0 if unknown).
  virtual uint64_t SizeHint() const { return 0; }
};

/// \brief In-memory UpdateStream over a vector of updates. The vector must
/// outlive the stream.
class MemoryUpdateStream : public UpdateStream {
 public:
  MemoryUpdateStream(const std::vector<EdgeUpdate>& updates, NodeId num_nodes)
      : updates_(&updates), num_nodes_(num_nodes) {}

  void Reset() override { pos_ = 0; }
  bool Next(EdgeUpdate* u) override;
  size_t NextBatch(EdgeUpdate* buf, size_t cap) override;
  uint64_t Skip(uint64_t n) override;
  NodeId num_nodes() const override { return num_nodes_; }
  uint64_t SizeHint() const override { return updates_->size(); }

 private:
  const std::vector<EdgeUpdate>* updates_;
  NodeId num_nodes_;
  size_t pos_ = 0;
};

/// Binary update-file layout: a 24-byte header followed by packed
/// EdgeUpdate records (24 bytes each; see the static_assert above).
struct BinaryUpdateFileHeader {
  static constexpr uint64_t kMagic = 0x44454e5355504454ULL;  // "DENSUPDT"
  uint64_t magic = kMagic;
  uint32_t num_nodes = 0;
  uint32_t reserved = 0;
  uint64_t num_updates = 0;
};

/// Writes `updates` to `path` in the binary update-file format.
Status WriteBinaryUpdateFile(const std::string& path, NodeId num_nodes,
                             const std::vector<EdgeUpdate>& updates);

/// \brief Disk-backed UpdateStream over a binary update file. Buffered
/// reads through one FILE handle; each Reset() replays from the start.
/// Sticky status(): a mid-stream read error (ferror, not EOF) or a file
/// that ends before header.num_updates records sets IOError, which
/// persists across Reset() — the file is bad and every further replay
/// would be silently short.
class BinaryFileUpdateStream : public UpdateStream {
 public:
  /// Opens `path`; fails with IOError / InvalidArgument on a bad file.
  static StatusOr<std::unique_ptr<BinaryFileUpdateStream>> Open(
      const std::string& path);

  ~BinaryFileUpdateStream() override;

  void Reset() override;
  bool Next(EdgeUpdate* u) override;
  size_t NextBatch(EdgeUpdate* buf, size_t cap) override;
  /// O(1) resume: seeks straight to record `delivered_ + n`.
  uint64_t Skip(uint64_t n) override;
  Status status() const override { return status_; }
  NodeId num_nodes() const override { return header_.num_nodes; }
  uint64_t SizeHint() const override { return header_.num_updates; }

  /// Retry knobs for transient (kUnavailable) faults in NextBatch.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  IoRetryStats io_retry_stats() const override { return retries_.stats(); }

 private:
  BinaryFileUpdateStream() = default;

  FILE* file_ = nullptr;
  std::string path_;  // for error messages
  BinaryUpdateFileHeader header_;
  uint64_t delivered_ = 0;
  bool exhausted_ = false;
  Status status_;  // sticky; see status()
  RetryPolicy retry_policy_;
  IoRetryCounters retries_;
};

/// \brief Generator: replays an EdgeStream as pure insertions — every edge
/// of one pass becomes one kInsert update with timestamps 1..m. Weights
/// are dropped (the dynamic subsystem is unweighted). The stream must
/// outlive the wrapper; status() forwards its sticky IO health.
class InsertReplayUpdateStream : public UpdateStream {
 public:
  explicit InsertReplayUpdateStream(EdgeStream& edges) : edges_(&edges) {}

  void Reset() override {
    edges_->Reset();
    tick_ = 0;
  }
  bool Next(EdgeUpdate* u) override;
  size_t NextBatch(EdgeUpdate* buf, size_t cap) override;
  Status status() const override { return edges_->status(); }
  IoRetryStats io_retry_stats() const override {
    return edges_->io_retry_stats();
  }
  NodeId num_nodes() const override { return edges_->num_nodes(); }
  uint64_t SizeHint() const override { return edges_->SizeHint(); }

 private:
  EdgeStream* edges_;
  uint64_t tick_ = 0;
  std::vector<Edge> scratch_;
};

/// \brief Generator: sliding-window deleter. Replays an EdgeStream as
/// insertions and, once the window overfills, evicts the oldest live edges
/// — so the described graph converges to the most recent `window` edges of
/// the replay. Keeps O(W + B) state (the FIFO of live edges).
///
/// `eviction_batch` (B, default 1) amortizes deletion-heavy windows: the
/// window may overfill to `window + B` live edges before B evictions are
/// emitted back-to-back, instead of one eviction interleaved after every
/// insert. When the inner stream ends, any overfill is drained so the
/// final live set is exactly the last min(m, window) edges — identical to
/// the per-update (B = 1) path, which the equivalence test in
/// update_stream_test.cc pins down. Total update count is unchanged:
/// m + max(0, m - W) regardless of B.
class SlidingWindowUpdateStream : public UpdateStream {
 public:
  SlidingWindowUpdateStream(EdgeStream& edges, uint64_t window,
                            uint64_t eviction_batch = 1)
      : edges_(&edges),
        window_(window),
        eviction_batch_(eviction_batch < 1 ? 1 : eviction_batch) {}

  void Reset() override {
    edges_->Reset();
    live_.clear();
    pending_evictions_ = 0;
    tick_ = 0;
  }
  bool Next(EdgeUpdate* u) override;
  Status status() const override { return edges_->status(); }
  IoRetryStats io_retry_stats() const override {
    return edges_->io_retry_stats();
  }
  NodeId num_nodes() const override { return edges_->num_nodes(); }
  /// Inserts plus the deletions the window forces, when the inner count is
  /// known: m + max(0, m - W).
  uint64_t SizeHint() const override;

 private:
  EdgeStream* edges_;
  uint64_t window_;
  uint64_t eviction_batch_;
  std::deque<std::pair<NodeId, NodeId>> live_;
  uint64_t pending_evictions_ = 0;  // evictions owed but not yet emitted
  uint64_t tick_ = 0;
};

}  // namespace densest

#endif  // DENSEST_STREAM_UPDATE_STREAM_H_

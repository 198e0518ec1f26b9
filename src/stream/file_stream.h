// Copyright 2026 The densest Authors.
// Disk-backed EdgeStream over a packed binary edge file. This is the
// honest semi-streaming configuration: the edge set never resides in RAM.

#ifndef DENSEST_STREAM_FILE_STREAM_H_
#define DENSEST_STREAM_FILE_STREAM_H_

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/edge_list.h"
#include "stream/edge_stream.h"

namespace densest {

/// Binary edge-file layout: a 24-byte header (magic, num_nodes, num_edges,
/// flags) followed by packed records. Unweighted records are 8 bytes
/// (u:u32, v:u32); weighted records append w:f64.
struct BinaryEdgeFileHeader {
  static constexpr uint64_t kMagic = 0x44454e5345444745ULL;  // "DENSEDGE"
  uint64_t magic = kMagic;
  uint32_t num_nodes = 0;
  uint32_t flags = 0;  // bit 0: weighted
  uint64_t num_edges = 0;
};

/// Writes `edges` to `path` in the binary edge-file format. `weighted`
/// selects the record size; if false, weights are dropped.
Status WriteBinaryEdgeFile(const std::string& path, const EdgeList& edges,
                           bool weighted);

/// \brief Buffered streaming reader over a binary edge file. Holds an open
/// FILE handle; each pass re-reads the file from the start.
///
/// Reads ahead: while the caller decodes the current 1 MiB buffer, the next
/// fread already runs on a one-thread background pool, so multi-pass runs
/// overlap disk latency with compute instead of alternating between them.
/// Only the prefetch task touches the FILE between hand-offs; the main
/// thread waits on the task's future before every seek, swap or close, so
/// the handle is never shared.
class BinaryFileEdgeStream : public EdgeStream {
 public:
  /// Opens `path`; fails with IOError / InvalidArgument on a bad file.
  static StatusOr<std::unique_ptr<BinaryFileEdgeStream>> Open(
      const std::string& path);

  ~BinaryFileEdgeStream() override;

  void Reset() override;
  bool Next(Edge* e) override;
  size_t NextBatch(Edge* buf, size_t cap) override;
  /// Sticky IO health: set to IOError when a mid-stream fread fails
  /// (ferror, not EOF) or when the file ends before header_.num_edges
  /// records were decoded (a truncated file). Once set it persists across
  /// Reset() — the underlying file is bad and every further pass would be
  /// silently short, which is exactly the wrong-density bug this guards.
  Status status() const override { return status_; }
  bool HasUnitWeights() const override { return !weighted_; }
  NodeId num_nodes() const override { return header_.num_nodes; }
  EdgeId SizeHint() const override { return header_.num_edges; }

  /// Total bytes read since Open (across all passes, including read-ahead
  /// discarded by an early Reset) — used by PassStats to report streaming
  /// IO volume.
  uint64_t bytes_read() const { return bytes_read_; }

  /// Retry knobs for transient (kUnavailable) faults in the prefetch task.
  /// The task reads the policy, and one is already in flight the moment
  /// Open returns — join it before writing (the joined chunk stays
  /// buffered for the next Refill to consume).
  void set_retry_policy(const RetryPolicy& policy) {
    JoinPrefetch();
    retry_policy_ = policy;
  }

  /// Outcomes of the prefetch retry loop. Unlike back_len_, these may be
  /// read while a prefetch is in flight (Reset() issues one before
  /// returning, and pass-boundary stats syncs read immediately after);
  /// see IoRetryCounters for why that is safe.
  IoRetryStats io_retry_stats() const override { return retries_.stats(); }

 private:
  BinaryFileEdgeStream() = default;
  /// Starts the background fread of the next chunk into back_.
  void IssuePrefetch();
  /// Joins an outstanding prefetch (if any) and accounts its bytes,
  /// without consuming the chunk — safe to call at any point the task
  /// must not be running (writing retry_policy_, destruction).
  void JoinPrefetch();
  /// Joins like JoinPrefetch, then delivers the buffered chunk exactly
  /// once: returns how many bytes it read (0 when none was pending, at
  /// EOF, or when a previous call already consumed the chunk).
  size_t WaitPrefetch();
  /// Makes at least one whole record available in front_, carrying the
  /// partial-record tail across the buffer swap. False at end of data.
  bool Refill(size_t record);

  FILE* file_ = nullptr;
  std::string path_;  // for error messages
  BinaryEdgeFileHeader header_;
  bool weighted_ = false;
  EdgeId emitted_ = 0;
  uint64_t bytes_read_ = 0;
  Status status_;  // sticky; see status()
  // Double buffer: decode from front_ while the prefetch task fills back_.
  // Each buffer reserves kMaxRecord leading bytes so a partial record can
  // be carried over in front of the next chunk's data.
  std::vector<unsigned char> front_;
  std::vector<unsigned char> back_;
  size_t buf_pos_ = 0;
  size_t buf_len_ = 0;
  size_t back_len_ = 0;  // written by the prefetch task, read after wait
  // True between a JoinPrefetch and the WaitPrefetch that consumes the
  // chunk: back_ holds data nobody decoded yet.
  bool back_ready_ = false;
  // Whether the prefetch task's short fread was a stream *error* rather
  // than EOF (std::ferror, checked inside the task while it still owns the
  // FILE). Read only after WaitPrefetch, like back_len_.
  bool back_error_ = false;
  // Whether the prefetch task exhausted its retry budget against a
  // transient fault; surfaces as a sticky kUnavailable (distinct from the
  // permanent kIOError of back_error_). Read only after WaitPrefetch.
  bool back_unavailable_ = false;
  bool exhausted_ = false;
  RetryPolicy retry_policy_;
  IoRetryCounters retries_;  // written by the prefetch task
  std::unique_ptr<ThreadPool> reader_;  // one background read thread
  std::future<void> prefetch_;
};

}  // namespace densest

#endif  // DENSEST_STREAM_FILE_STREAM_H_

// Copyright 2026 The densest Authors.
// Temp-file spill store for the MapReduce shuffle: when a shuffle partition
// outgrows its memory budget, its sorted runs are serialized here and
// merge-read back at reduce time, so resident shuffle memory follows the
// budget instead of |E| (the budget, plus one map round's output, plus
// merge refill buffers; see mapreduce/job.h).
// Byte-oriented: callers frame their own records (the shuffle writes
// arrays of trivially-copyable KV structs).
//
// Failure model mirrors the edge streams' sticky status(): a short read
// before a segment is exhausted is an IOError ("truncated spill file"),
// never a silent end-of-data — a reduce over a partial partition would
// produce a plausible-looking but wrong aggregate.

#ifndef DENSEST_IO_SPILL_FILE_H_
#define DENSEST_IO_SPILL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/failpoint.h"
#include "common/retry.h"
#include "common/status.h"

namespace densest {

/// \brief One append-only temp file of spilled bytes, deleted when the
/// object dies. Writes happen single-threaded (the shuffle appends runs in
/// chunk order). The shuffle's merge reads all of a file's runs back
/// through ReadAt, positioned reads on the file's own descriptor.
class SpillFile {
 public:
  /// Creates a uniquely-named spill file in `dir` ("" uses the system temp
  /// directory). Fails with IOError when the file cannot be opened.
  static StatusOr<std::unique_ptr<SpillFile>> Create(const std::string& dir);

  /// Creates the spill file at exactly `path` (tests use this to damage the
  /// file between write and read).
  static StatusOr<std::unique_ptr<SpillFile>> CreateAt(std::string path);

  /// Closes and removes the file.
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends `bytes` raw bytes. Fails with IOError on a short write (disk
  /// full); the error is sticky and every later Append fails too.
  Status Append(const void* data, size_t bytes);

  /// Flushes buffered writes to the OS so ReadAt (which bypasses the write
  /// buffer) observes everything appended so far.
  Status Flush();

  /// Total bytes successfully appended.
  uint64_t bytes_written() const { return bytes_written_; }

  const std::string& path() const { return path_; }

  /// Retry knobs for transient (kUnavailable) faults on this file's read
  /// and write seams.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

  /// Accumulated retry-loop outcomes across Append and ReadAt.
  IoRetryStats io_retry_stats() const { return retries_.stats(); }

  /// Positioned read: a pread loop on the file's descriptor, which leaves
  /// the write position alone. The merge phase reads its many sorted runs
  /// through this, so open fds stay at one per partition no matter how
  /// many runs spilled. Reads up to min(cap, bytes_written() - offset)
  /// bytes of what was appended before the last Flush; a short read before
  /// that is an IOError ("truncated spill file"), never a silent
  /// end-of-data. One reader at a time (the shuffle merges each
  /// partition's file from one thread), and not concurrently with Append.
  StatusOr<size_t> ReadAt(uint64_t offset, void* buf, size_t cap);

 private:
  SpillFile(FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  FILE* file_;
  std::string path_;
  uint64_t bytes_written_ = 0;
  Status status_;  // sticky write-side error
  RetryPolicy retry_policy_;
  IoRetryCounters retries_;
};

}  // namespace densest

#endif  // DENSEST_IO_SPILL_FILE_H_

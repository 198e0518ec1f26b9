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
/// chunk order). The shuffle's merge reads all of a file's runs through
/// the one shared positioned-read handle (ReadAt). OpenReader gives an
/// independent sequential cursor with its own FILE handle over one segment.
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

  /// Flushes buffered writes to the OS so Readers (which reopen the path)
  /// observe everything appended so far.
  Status Flush();

  /// Total bytes successfully appended.
  uint64_t bytes_written() const { return bytes_written_; }

  const std::string& path() const { return path_; }

  /// Retry knobs for transient (kUnavailable) faults on this file's read
  /// and write seams.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

  /// Accumulated retry-loop outcomes across Append/ReadAt/Reader::Read.
  /// Independent Readers may share one file and count concurrently.
  IoRetryStats io_retry_stats() const { return retries_.stats(); }

  /// \brief Sequential cursor over one byte segment of the file.
  class Reader {
   public:
    Reader(Reader&& other) noexcept;
    Reader& operator=(Reader&& other) noexcept;
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;
    ~Reader();

    /// Reads up to min(cap, remaining()) bytes into `buf` and returns how
    /// many were read. 0 exactly when the segment is exhausted. A short
    /// read before that — the file was truncated or the disk failed — is
    /// an IOError, not an end-of-data.
    StatusOr<size_t> Read(void* buf, size_t cap);

    /// Bytes of the segment not yet delivered.
    uint64_t remaining() const { return remaining_; }

   private:
    friend class SpillFile;
    Reader(const SpillFile* owner, FILE* file, uint64_t remaining,
           std::string path)
        : owner_(owner),
          file_(file),
          remaining_(remaining),
          path_(std::move(path)) {}

    const SpillFile* owner_;  // retry policy + shared retry counters
    FILE* file_;
    uint64_t remaining_;
    std::string path_;  // for error messages
  };

  /// Opens an independent reader over bytes [offset, offset + length).
  /// Requires offset + length <= bytes_written(). The SpillFile must
  /// outlive the reader (destruction unlinks the path).
  StatusOr<Reader> OpenReader(uint64_t offset, uint64_t length) const;

  /// Positioned read through one lazily-opened handle shared by all
  /// callers of this file — the merge phase reads its many sorted runs
  /// through this, so open fds stay at one per partition no matter how
  /// many runs spilled (independent Readers would exhaust the fd limit on
  /// exactly the out-of-core workloads the spill path targets). Reads up
  /// to min(cap, bytes_written() - offset) bytes; a short read before
  /// that is an IOError (truncation), mirroring Reader::Read. NOT
  /// thread-safe: one partition's merge — this file's only ReadAt caller
  /// — runs single-threaded.
  StatusOr<size_t> ReadAt(uint64_t offset, void* buf, size_t cap);

 private:
  SpillFile(FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  FILE* file_;
  FILE* read_file_ = nullptr;  // lazily opened by ReadAt
  std::string path_;
  uint64_t bytes_written_ = 0;
  Status status_;  // sticky write-side error
  RetryPolicy retry_policy_;
  mutable IoRetryCounters retries_;  // Readers count through a const owner
};

}  // namespace densest

#endif  // DENSEST_IO_SPILL_FILE_H_

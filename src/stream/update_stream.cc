#include "stream/update_stream.h"

#include <algorithm>
#include <cstring>

#include "common/failpoint.h"

namespace densest {

size_t UpdateStream::NextBatch(EdgeUpdate* buf, size_t cap) {
  size_t got = 0;
  while (got < cap && Next(&buf[got])) ++got;
  return got;
}

uint64_t UpdateStream::Skip(uint64_t n) {
  // Drain-based default: delivers the updates into scratch and discards
  // them, which keeps generator state (sliding-window FIFO, tick counters)
  // exactly as if the updates had been consumed.
  EdgeUpdate scratch[256];
  uint64_t skipped = 0;
  while (skipped < n) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(n - skipped, std::size(scratch)));
    const size_t got = NextBatch(scratch, want);
    if (got == 0) break;
    skipped += got;
  }
  return skipped;
}

// ---------------------------------------------------------------- memory --

bool MemoryUpdateStream::Next(EdgeUpdate* u) {
  if (pos_ >= updates_->size()) return false;
  *u = (*updates_)[pos_++];
  return true;
}

size_t MemoryUpdateStream::NextBatch(EdgeUpdate* buf, size_t cap) {
  const size_t take = std::min(cap, updates_->size() - pos_);
  std::memcpy(buf, updates_->data() + pos_, take * sizeof(EdgeUpdate));
  pos_ += take;
  return take;
}

uint64_t MemoryUpdateStream::Skip(uint64_t n) {
  const uint64_t take = std::min<uint64_t>(n, updates_->size() - pos_);
  pos_ += static_cast<size_t>(take);
  return take;
}

// ----------------------------------------------------------- binary file --

Status WriteBinaryUpdateFile(const std::string& path, NodeId num_nodes,
                             const std::vector<EdgeUpdate>& updates) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  BinaryUpdateFileHeader header;
  header.num_nodes = num_nodes;
  header.num_updates = updates.size();
  bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1;
  if (ok && DENSEST_FAILPOINT("update_file.write") != FailpointAction::kNone) {
    ok = false;  // models fwrite returning short (disk full mid-body)
  }
  if (ok && !updates.empty()) {
    ok = std::fwrite(updates.data(), sizeof(EdgeUpdate), updates.size(), f) ==
         updates.size();
  }
  if (!ok) {
    std::fclose(f);
    return Status::IOError("short write: " + path);
  }
  // fclose flushes the stdio buffer; with buffered writes this is where a
  // full disk actually surfaces, so it gets its own failpoint and message.
  const bool flush_failed =
      DENSEST_FAILPOINT("update_file.flush") != FailpointAction::kNone;
  if (std::fclose(f) != 0 || flush_failed) {
    return Status::IOError("flush failed: " + path);
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<BinaryFileUpdateStream>> BinaryFileUpdateStream::Open(
    const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open: " + path);
  BinaryUpdateFileHeader header;
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return Status::IOError("cannot read update-file header: " + path);
  }
  if (header.magic != BinaryUpdateFileHeader::kMagic) {
    std::fclose(f);
    return Status::InvalidArgument("not a binary update file: " + path);
  }
  std::unique_ptr<BinaryFileUpdateStream> stream(new BinaryFileUpdateStream());
  stream->file_ = f;
  stream->path_ = path;
  stream->header_ = header;
  return stream;
}

BinaryFileUpdateStream::~BinaryFileUpdateStream() {
  if (file_ != nullptr) std::fclose(file_);
}

void BinaryFileUpdateStream::Reset() {
  // A sticky error survives Reset: the file is bad and every further
  // replay would be silently short.
  delivered_ = 0;
  exhausted_ = false;
  std::clearerr(file_);
  if (std::fseek(file_, sizeof(BinaryUpdateFileHeader), SEEK_SET) != 0 &&
      status_.ok()) {
    status_ = Status::IOError("seek failed: " + path_);
  }
}

size_t BinaryFileUpdateStream::NextBatch(EdgeUpdate* buf, size_t cap) {
  if (exhausted_ || !status_.ok() || cap == 0) return 0;
  const uint64_t remaining = header_.num_updates - delivered_;
  const size_t want = static_cast<size_t>(std::min<uint64_t>(cap, remaining));
  if (want == 0) {
    exhausted_ = true;
    return 0;
  }
  const FailpointAction fp =
      EvalFailpointWithRetry("update_stream.read", retry_policy_, retries_);
  if (fp == FailpointAction::kUnavailable) {
    exhausted_ = true;
    status_ = Status::Unavailable(
        "read failed after " + std::to_string(retry_policy_.max_attempts) +
        " attempts: " + path_);
    return 0;
  }
  if (fp == FailpointAction::kIOError) {
    exhausted_ = true;
    status_ = Status::IOError("read error (injected): " + path_);
    return 0;
  }
  size_t got = std::fread(buf, sizeof(EdgeUpdate), want, file_);
  if (fp == FailpointAction::kShortRead) {
    // Torn file: pretend it physically ends mid-batch, so the real
    // truncation detection below fires.
    got /= 2;
  }
  if (got < want) {
    exhausted_ = true;
    if (std::ferror(file_) != 0) {
      status_ = Status::IOError("read error: " + path_);
    } else if (got + delivered_ < header_.num_updates) {
      // EOF before the header's count: the body is truncated. Without this
      // the replay would end early and quietly maintain a density over a
      // partial update sequence.
      status_ = Status::IOError("truncated update file: " + path_);
    }
  }
  delivered_ += got;
  return got;
}

bool BinaryFileUpdateStream::Next(EdgeUpdate* u) {
  return NextBatch(u, 1) == 1;
}

uint64_t BinaryFileUpdateStream::Skip(uint64_t n) {
  if (exhausted_ || !status_.ok() || n == 0) return 0;
  const uint64_t take = std::min(n, header_.num_updates - delivered_);
  const uint64_t target = sizeof(BinaryUpdateFileHeader) +
                          (delivered_ + take) * sizeof(EdgeUpdate);
  if (std::fseek(file_, static_cast<long>(target), SEEK_SET) != 0) {
    status_ = Status::IOError("seek failed: " + path_);
    exhausted_ = true;
    return 0;
  }
  delivered_ += take;
  return take;
}

// --------------------------------------------------------- insert replay --

bool InsertReplayUpdateStream::Next(EdgeUpdate* u) {
  Edge e;
  if (!edges_->Next(&e)) return false;
  *u = InsertUpdate(e.u, e.v, ++tick_);
  return true;
}

size_t InsertReplayUpdateStream::NextBatch(EdgeUpdate* buf, size_t cap) {
  scratch_.resize(cap);
  const size_t got = edges_->NextBatch(scratch_.data(), cap);
  for (size_t i = 0; i < got; ++i) {
    buf[i] = InsertUpdate(scratch_[i].u, scratch_[i].v, ++tick_);
  }
  return got;
}

// -------------------------------------------------------- sliding window --

bool SlidingWindowUpdateStream::Next(EdgeUpdate* u) {
  // Inserts run until the window overfills by a full eviction batch, then
  // the owed evictions are emitted back-to-back (oldest first). With
  // eviction_batch_ == 1 this is exactly the classic interleaving: one
  // eviction after each overfilling insert.
  if (pending_evictions_ == 0) {
    Edge e;
    if (edges_->Next(&e)) {
      live_.emplace_back(e.u, e.v);
      *u = InsertUpdate(e.u, e.v, ++tick_);
      if (live_.size() >= window_ + eviction_batch_) {
        pending_evictions_ = live_.size() - window_;
      }
      return true;
    }
    // Inner stream ended: drain any overfill so the final live set is the
    // last min(m, window_) edges, matching the per-update path bit for bit.
    if (live_.size() > window_) {
      pending_evictions_ = live_.size() - window_;
    }
  }
  if (pending_evictions_ > 0) {
    --pending_evictions_;
    const auto [du, dv] = live_.front();
    live_.pop_front();
    *u = DeleteUpdate(du, dv, ++tick_);
    return true;
  }
  return false;
}

uint64_t SlidingWindowUpdateStream::SizeHint() const {
  const uint64_t m = edges_->SizeHint();
  if (m == 0) return 0;
  return m + (m > window_ ? m - window_ : 0);
}

}  // namespace densest

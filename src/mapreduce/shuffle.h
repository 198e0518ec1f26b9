// Copyright 2026 The densest Authors.
// The spill-capable shuffle of the MapReduce engine. Map output is
// hash-partitioned as it arrives (in chunk order); a partition whose
// in-memory buffer exceeds its share of the byte budget radix-sorts the
// buffer by key (stably) and serializes it to a SpillFile as one sorted run.
// At reduce time the partition's runs (spilled runs + the in-memory tail)
// are merged through a loser tree in (key, run index) order, which
// reproduces exactly the stable-sorted order of the full append sequence —
// so job output is byte-identical whether zero, some, or all partitions
// spilled.
//
// Keys are unsigned integers, so every sort here is an LSD radix sort
// (RadixSortByKey) and every merge compare is one integer compare of a
// packed (key, run) head (LoserTree).

#ifndef DENSEST_MAPREDUCE_SHUFFLE_H_
#define DENSEST_MAPREDUCE_SHUFFLE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/status.h"
#include "io/spill_file.h"

namespace densest {

template <typename K, typename V>
struct KV;

/// Walks a key-sorted record range and invokes fn(key, values) once per
/// distinct key. `values` is caller-owned scratch reused across groups.
/// The one grouping loop behind the combiner and the in-memory reduce
/// path; the spill merge groups the same way, run by run, in MergeReduce.
template <typename K, typename V, typename GroupFn>
void ForEachGroup(std::span<const KV<K, V>> sorted, std::vector<V>* values,
                  GroupFn&& fn) {
  size_t i = 0;
  while (i < sorted.size()) {
    size_t j = i;
    values->clear();
    while (j < sorted.size() && sorted[j].key == sorted[i].key) {
      values->push_back(sorted[j].value);
      ++j;
    }
    fn(sorted[i].key, *values);
    i = j;
  }
}

/// Ranges shorter than this are insertion-sorted in place: below it, the
/// histogram clears of a radix pass cost more than the sort itself.
inline constexpr size_t kRadixSortSmallN = 64;
/// Bits per radix digit. 11 keeps a digit's counts (16 KiB) in L1 and sorts
/// the 18-bit node ids of a 200k-node graph in two passes.
inline constexpr int kRadixDigitBits = 11;

/// \brief Stable LSD radix sort of data[0, n) by the unsigned key.
///
/// `scratch` must have room for n records. The sorted records end up in
/// whichever of the two buffers is returned; the other holds leftovers.
/// Records with equal keys keep their input order, so the result is exactly
/// that of a stable comparison sort by key. Digits start at the lowest bit on
/// which two keys differ and skip every window of bits on which all keys
/// agree, so the pass count follows the key spread, not the key width.
template <typename K, typename V>
KV<K, V>* RadixSortByKey(KV<K, V>* data, KV<K, V>* scratch, size_t n) {
  static_assert(std::is_unsigned_v<K> && sizeof(K) <= sizeof(uint64_t),
                "shuffle keys must be unsigned integers of at most 64 bits");
  if (n < kRadixSortSmallN) {
    for (size_t i = 1; i < n; ++i) {
      const KV<K, V> rec = data[i];
      size_t j = i;
      for (; j > 0 && rec.key < data[j - 1].key; --j) data[j] = data[j - 1];
      data[j] = rec;
    }
    return data;
  }
  uint64_t any = 0;
  uint64_t all = ~uint64_t{0};
  for (size_t i = 0; i < n; ++i) {
    any |= data[i].key;
    all &= data[i].key;
  }
  constexpr int kKeyBits = 8 * sizeof(K);
  constexpr int kMaxDigits = (kKeyBits + kRadixDigitBits - 1) / kRadixDigitBits;
  constexpr size_t kBuckets = size_t{1} << kRadixDigitBits;
  constexpr uint64_t kMask = kBuckets - 1;
  // Each digit window starts at the lowest still-differing bit; windows
  // are disjoint, so there are at most kMaxDigits of them.
  int shifts[kMaxDigits] = {};
  int digits = 0;
  for (uint64_t differ = any ^ all; differ != 0;) {
    const int shift = std::countr_zero(differ);
    shifts[digits++] = shift;
    const int next = shift + kRadixDigitBits;
    differ = next >= 64 ? 0 : differ & (~uint64_t{0} << next);
  }
  size_t counts[kMaxDigits][kBuckets] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = data[i].key;
    for (int d = 0; d < digits; ++d) ++counts[d][(key >> shifts[d]) & kMask];
  }
  KV<K, V>* src = data;
  KV<K, V>* dst = scratch;
  for (int d = 0; d < digits; ++d) {
    size_t* offsets = counts[d];
    size_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const size_t c = offsets[b];
      offsets[b] = sum;
      sum += c;
    }
    const int shift = shifts[d];
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = src[i].key;
      dst[offsets[(key >> shift) & kMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

/// \brief Loser tree for the R-way merge of sorted runs.
///
/// Each run's head is packed into one unsigned integer, key above run
/// index, so a single integer compare orders heads by (key, run index) and
/// each level of a replay is one compare and a branch-free min/max. An
/// exhausted run packs to all ones (kExhausted), which sorts after every
/// real head: a real head's run index is below 2^32 - 1, so even a key of
/// all ones packs to something smaller.
template <typename K>
class LoserTree {
 public:
  static_assert(std::is_unsigned_v<K> && sizeof(K) <= sizeof(uint64_t),
                "merge keys must be unsigned integers of at most 64 bits");
  using Head = std::conditional_t<sizeof(K) <= 4, uint64_t, unsigned __int128>;
  static constexpr Head kExhausted = ~Head{0};
  /// Runs a tree can merge: run indices stay below the all-ones pattern.
  static constexpr size_t kMaxRuns = std::numeric_limits<uint32_t>::max() - 1;

  static Head Pack(K key, uint32_t run) { return Head{key} << 32 | run; }
  static K KeyOf(Head head) { return static_cast<K>(head >> 32); }
  static uint32_t RunOf(Head head) { return static_cast<uint32_t>(head); }

  /// `heads[r]` is run r's first head (Pack(key, r), or kExhausted for an
  /// empty run); 1 <= heads.size() <= kMaxRuns.
  explicit LoserTree(const std::vector<Head>& heads) {
    while (leaves_ < heads.size()) leaves_ <<= 1;
    // Play the initial tournament bottom-up: each internal node keeps the
    // loser of its match and passes the winner up.
    std::vector<Head> winners(2 * leaves_, kExhausted);
    std::copy(heads.begin(), heads.end(), winners.begin() + leaves_);
    losers_.assign(leaves_, kExhausted);
    for (size_t i = leaves_ - 1; i > 0; --i) {
      losers_[i] = std::max(winners[2 * i], winners[2 * i + 1]);
      winners[i] = std::min(winners[2 * i], winners[2 * i + 1]);
    }
    winner_ = winners[1];
  }

  /// Smallest head over all runs; kExhausted once every run is.
  Head winner() const { return winner_; }

  /// Replaces the winning run's head with `head` (its next record's
  /// Pack(key, run), or kExhausted) and replays its path to the root.
  /// Requires winner() != kExhausted.
  void ReplaceWinner(Head head) {
    for (size_t i = (leaves_ + RunOf(winner_)) >> 1; i > 0; i >>= 1) {
      const Head loser = losers_[i];
      losers_[i] = std::max(head, loser);
      head = std::min(head, loser);
    }
    winner_ = head;
  }

 private:
  size_t leaves_ = 1;
  std::vector<Head> losers_;  // losers_[i]: loser of internal node i (i >= 1)
  Head winner_ = kExhausted;
};

/// \brief Knobs for one MapReduce job's execution (not its semantics).
struct JobOptions {
  /// Total in-memory shuffle budget in bytes, shared evenly by the
  /// partitions; a partition whose buffer exceeds its share after an
  /// appended chunk spills a sorted run to disk. At reduce time the same
  /// bytes size the merges' refill buffers. A spill threshold, not a hard
  /// cap on resident memory (see mapreduce/job.h). 0 = never spill (whole
  /// shuffle stays resident).
  uint64_t spill_budget_bytes = 0;
  /// Directory for spill files ("" = the system temp directory).
  std::string spill_dir;
  /// Records per map chunk pulled from a RecordSource. A fixed count —
  /// never derived from the thread count — so combiner boundaries, and
  /// with them the job's exact output bytes, are identical for every
  /// thread count.
  size_t map_chunk_records = 1 << 15;
  /// Shuffle partitions (= reduce parallelism ceiling). Fixed for the same
  /// reason as map_chunk_records: output records are concatenated in
  /// partition order, so a thread-derived count would make the output
  /// order machine-dependent.
  size_t num_partitions = 16;
  /// Expected map emissions per input record; pre-sizes map output buffers
  /// (the cost-model record estimate for the job, e.g. 2.0 for the degree
  /// jobs which emit both endpoints).
  double map_fanout_hint = 1.0;
  /// Expected total reduce output records (0 = unknown); pre-sizes reduce
  /// output buffers.
  uint64_t reduce_output_hint = 0;
  /// Optional cooperative cancellation (see common/cancel.h). Polled once
  /// per map round and once per reduce partition; a tripped token fails
  /// the job with kCancelled/kDeadlineExceeded and spill files are removed
  /// by their destructors on the early return. Null = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// \brief Hash-partitioned shuffle store with budgeted spilling.
///
/// Append() must be called in chunk order from one thread (the engine owns
/// that ordering); ReducePartition() calls for distinct partitions may run
/// concurrently, at most `reduce_threads` at a time.
template <typename K, typename V>
class ShuffleWriter {
  static_assert(std::is_trivially_copyable_v<K> &&
                    std::is_trivially_copyable_v<V>,
                "spillable shuffle records must be trivially copyable");

 public:
  /// `reduce_threads` is how many ReducePartition calls run at once (the
  /// reduce pool's width); the merges in flight split the budget between
  /// them for their refill buffers.
  ShuffleWriter(size_t num_partitions, const JobOptions& options,
                size_t reduce_threads)
      : options_(options), partitions_(num_partitions) {
    if (options_.spill_budget_bytes > 0) {
      partition_budget_ = std::max<uint64_t>(
          1, options_.spill_budget_bytes / num_partitions);
      merge_budget_ = options_.spill_budget_bytes /
                      std::clamp<size_t>(reduce_threads, 1, num_partitions);
    }
  }

  size_t num_partitions() const { return partitions_.size(); }

  /// Capacity hint: the caller expects ~`expected_records` appends in
  /// total, spread evenly by the hash. Pre-sizes the partition buffers
  /// (capped at the spill share — anything beyond it hits disk anyway).
  void ReserveForInput(uint64_t expected_records) {
    if (expected_records == 0) return;
    uint64_t per = expected_records / partitions_.size() + 1;
    if (partition_budget_ > 0) {
      per = std::min<uint64_t>(per,
                               partition_budget_ / sizeof(KV<K, V>) + 1);
    }
    for (Partition& part : partitions_) {
      part.buffer.reserve(static_cast<size_t>(per));
    }
  }

  /// Distributes one map chunk's (combined) output across the partitions,
  /// spilling any partition that left its budget. Consumes the chunk.
  Status Append(std::vector<KV<K, V>>&& chunk) {
    for (KV<K, V>& kv : chunk) {
      const size_t p =
          Mix64(static_cast<uint64_t>(kv.key)) % partitions_.size();
      partitions_[p].buffer.push_back(std::move(kv));
    }
    records_ += chunk.size();
    chunk.clear();
    if (partition_budget_ == 0) return Status::OK();
    for (Partition& part : partitions_) {
      if (part.buffer.size() * sizeof(KV<K, V>) > partition_budget_) {
        if (Status s = SpillRun(part); !s.ok()) return s;
      }
    }
    return Status::OK();
  }

  /// Records appended so far (what crosses the modeled shuffle).
  uint64_t records() const { return records_; }
  /// Bytes serialized to spill files so far.
  uint64_t spill_bytes_written() const { return spill_bytes_written_; }
  /// Bytes merge-read back from spill files (grows during reduce).
  uint64_t spill_bytes_read() const {
    uint64_t total = 0;
    for (const Partition& part : partitions_) total += part.spill_read_bytes;
    return total;
  }
  /// Sorted runs spilled across all partitions.
  uint64_t spill_runs() const {
    uint64_t total = 0;
    for (const Partition& part : partitions_) {
      total += part.run_records.size();
    }
    return total;
  }

  /// Retry-loop outcomes accumulated across all partitions' spill files
  /// (write and merge-read seams); see common/retry.h.
  IoRetryStats io_retry_stats() const {
    IoRetryStats total;
    for (const Partition& part : partitions_) {
      if (part.spill != nullptr) {
        total.Accumulate(part.spill->io_retry_stats());
      }
    }
    return total;
  }

  /// Streams partition `p`'s records grouped by key, in the stable-sorted
  /// order of the append sequence: fn(key, values) once per distinct key.
  /// `values` is caller-owned scratch reused across groups.
  template <typename GroupFn>
  Status ReducePartition(size_t p, std::vector<V>* values, GroupFn&& fn) {
    Partition& part = partitions_[p];
    const size_t n = part.buffer.size();
    std::unique_ptr<KV<K, V>[]> scratch =
        std::make_unique_for_overwrite<KV<K, V>[]>(n);
    const std::span<const KV<K, V>> tail(
        RadixSortByKey(part.buffer.data(), scratch.get(), n), n);
    if (part.run_records.empty()) {
      // Fast path: nothing spilled, group the sorted tail directly.
      ForEachGroup(tail, values, std::forward<GroupFn>(fn));
      return Status::OK();
    }
    return MergeReduce(part, tail, values, std::forward<GroupFn>(fn));
  }

 private:
  struct Partition {
    std::vector<KV<K, V>> buffer;
    std::unique_ptr<SpillFile> spill;
    /// Record count of each sorted run, in spill order; run r occupies
    /// bytes [sum(run_records[0..r)) * sizeof(KV), ...) of the file.
    std::vector<uint64_t> run_records;
    uint64_t spill_read_bytes = 0;
  };

  /// \brief Buffered cursor over one sorted run (a spilled segment or the
  /// in-memory tail). Spilled runs read through the file's positioned reads
  /// (SpillFile::ReadAt) so a partition holds one fd no matter how many
  /// runs it spilled.
  class RunCursor {
   public:
    /// Spilled run over file bytes [offset, offset + length), refilled in
    /// batches of refill_records (fewer when the run is shorter). Empty
    /// until the first Refill().
    RunCursor(SpillFile* file, uint64_t offset, uint64_t length,
              size_t refill_records, uint64_t* read_bytes)
        : file_(file),
          offset_(offset),
          remaining_(length),
          refill_records_(static_cast<size_t>(std::max<uint64_t>(
              1, std::min<uint64_t>(length / sizeof(KV<K, V>),
                                    refill_records)))),
          read_bytes_(read_bytes) {}
    /// In-memory tail run (already sorted): zero-copy walk.
    explicit RunCursor(std::span<const KV<K, V>> tail)
        : data_(tail.data()), end_(tail.size()) {}

    bool exhausted() const { return pos_ == end_; }
    K front_key() const { return data_[pos_].key; }

    /// Appends the values of the run's leading records with key `key` to
    /// `values`, refilling across batch boundaries. Leaves the cursor on
    /// the first record with another key, or exhausted.
    Status TakeKey(K key, std::vector<V>* values) {
      while (true) {
        while (pos_ < end_ && data_[pos_].key == key) {
          values->push_back(data_[pos_++].value);
        }
        if (pos_ < end_) return Status::OK();
        if (Status s = Refill(); !s.ok()) return s;
        if (exhausted()) return Status::OK();
      }
    }

    /// Loads the next batch once the buffered records are used up; a run
    /// with nothing left to read stays exhausted.
    Status Refill() {
      if (pos_ < end_ || remaining_ == 0) return Status::OK();
      if (buf_ == nullptr) {
        buf_ = std::make_unique_for_overwrite<KV<K, V>[]>(refill_records_);
      }
      const size_t want = static_cast<size_t>(std::min<uint64_t>(
          refill_records_ * sizeof(KV<K, V>), remaining_));
      StatusOr<size_t> got = file_->ReadAt(offset_, buf_.get(), want);
      if (!got.ok()) return got.status();
      if (*got < want) {
        // ReadAt clamps to bytes_written, so a short result here means the
        // run metadata promises bytes the file never received.
        return Status::IOError("spill run ends mid-file");
      }
      if (*got % sizeof(KV<K, V>) != 0) {
        return Status::IOError("spill run ends mid-record");
      }
      offset_ += *got;
      remaining_ -= *got;
      *read_bytes_ += *got;
      data_ = buf_.get();
      pos_ = 0;
      end_ = *got / sizeof(KV<K, V>);
      return Status::OK();
    }

   private:
    SpillFile* file_ = nullptr;
    uint64_t offset_ = 0;
    uint64_t remaining_ = 0;
    size_t refill_records_ = 0;
    uint64_t* read_bytes_ = nullptr;
    std::unique_ptr<KV<K, V>[]> buf_;  // refill_records_, on first Refill
    const KV<K, V>* data_ = nullptr;   // buf_ or the tail
    size_t pos_ = 0;
    size_t end_ = 0;
  };

  Status SpillRun(Partition& part) {
    if (part.buffer.empty()) return Status::OK();
    if (part.spill == nullptr) {
      StatusOr<std::unique_ptr<SpillFile>> spill =
          SpillFile::Create(options_.spill_dir);
      if (!spill.ok()) return spill.status();
      part.spill = std::move(*spill);
    }
    const size_t n = part.buffer.size();
    spill_scratch_.resize(n);
    const KV<K, V>* sorted =
        RadixSortByKey(part.buffer.data(), spill_scratch_.data(), n);
    const size_t bytes = n * sizeof(KV<K, V>);
    if (Status s = part.spill->Append(sorted, bytes); !s.ok()) return s;
    part.run_records.push_back(n);
    spill_bytes_written_ += bytes;
    part.buffer.clear();
    return Status::OK();
  }

  template <typename GroupFn>
  Status MergeReduce(Partition& part, std::span<const KV<K, V>> tail,
                     std::vector<V>* values, GroupFn&& fn) {
    using Tree = LoserTree<K>;
    if (part.run_records.size() >= Tree::kMaxRuns) {
      return Status::Internal("too many spill runs in one partition");
    }
    if (Status s = part.spill->Flush(); !s.ok()) return s;
    // One cursor per sorted run, ordered oldest run first with the
    // in-memory tail last: tie-breaking on run index then reproduces the
    // append order of equal keys, i.e. exactly the stable sort of the
    // whole partition.
    std::vector<RunCursor> runs;
    runs.reserve(part.run_records.size() + 1);
    // Refill buffers: the map phase is over, so the whole budget is free
    // for the merges in flight (at most one per reduce thread, hence
    // merge_budget_), and each merge splits its share over its runs plus
    // the tail. Floored at 64 records: below that, per-refill reads
    // dominate the merge. The floor can exceed a pathologically tiny budget
    // (the forced-spill tests) — a bounded, documented overshoot, not a
    // correctness issue. Refill size changes only the IO pattern, never
    // the merge order.
    const size_t refill_records = std::max<size_t>(
        64, merge_budget_ /
                ((part.run_records.size() + 1) * sizeof(KV<K, V>)));
    uint64_t offset = 0;
    for (uint64_t run_len : part.run_records) {
      const uint64_t bytes = run_len * sizeof(KV<K, V>);
      runs.emplace_back(part.spill.get(), offset, bytes, refill_records,
                        &part.spill_read_bytes);
      offset += bytes;
    }
    runs.emplace_back(tail);
    auto head_of = [&runs](uint32_t r) {
      return runs[r].exhausted() ? Tree::kExhausted
                                 : Tree::Pack(runs[r].front_key(), r);
    };
    std::vector<typename Tree::Head> heads;
    heads.reserve(runs.size());
    for (uint32_t r = 0; r < runs.size(); ++r) {
      if (Status s = runs[r].Refill(); !s.ok()) return s;
      heads.push_back(head_of(r));
    }
    // (key, run index) order: a key's values drain run 0's equal-key
    // records first, then run 1's, ... then the tail — the stable sort of
    // the whole append sequence. The winning run hands over all its
    // records with the key before it is re-seated, so a run with repeated
    // keys costs one replay per key, not per record.
    Tree tree(heads);
    while (tree.winner() != Tree::kExhausted) {
      const K key = Tree::KeyOf(tree.winner());
      values->clear();
      do {
        const uint32_t r = Tree::RunOf(tree.winner());
        if (Status s = runs[r].TakeKey(key, values); !s.ok()) return s;
        tree.ReplaceWinner(head_of(r));
      } while (tree.winner() != Tree::kExhausted &&
               Tree::KeyOf(tree.winner()) == key);
      fn(key, *values);
    }
    return Status::OK();
  }

  JobOptions options_;
  uint64_t partition_budget_ = 0;  // spill threshold; 0 = unlimited
  uint64_t merge_budget_ = 0;      // refill bytes per merge in flight
  std::vector<Partition> partitions_;
  uint64_t records_ = 0;
  uint64_t spill_bytes_written_ = 0;
  /// SpillRun's radix scatter buffer, kept across spills (Append is
  /// single-threaded): it grows to the largest spilled buffer, a partition's
  /// share plus one chunk's records. Allocating it per spill, between the
  /// growing partition buffers, fragmented the heap: +4 MiB peak RSS on the
  /// mr-spill benchmark.
  std::vector<KV<K, V>> spill_scratch_;
};

}  // namespace densest

#endif  // DENSEST_MAPREDUCE_SHUFFLE_H_

// Benchmark-owned timing decorators around the library's public seams:
// EdgeStream (input reads), UpdateStream (dynamic update reads) and
// AnswerSink (answer publication). Each forwards every hook to the wrapped
// object, so the engines take the same fast paths as without the decorator
// (zero-copy NextView, unit-weight kernels, CSR views, size hints), and the
// traced run computes the same answers as the untraced one.

#ifndef PERFBENCH_TIMED_H_
#define PERFBENCH_TIMED_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common.h"
#include "core/answer.h"
#include "stream/edge_stream.h"
#include "stream/update_stream.h"

namespace perfbench {

/// Times every read of an EdgeStream and splits a solve into passes at each
/// Reset(): a pass window runs from one Reset to the next (the last one ends
/// when Finish() is called after the solve returns).
class TimedEdgeStream final : public densest::EdgeStream {
 public:
  struct Pass {
    double window_s = 0;  ///< Reset to next Reset (or Finish)
    double read_s = 0;    ///< time inside the wrapped stream's read calls
    uint64_t edges = 0;   ///< edges the wrapped stream delivered
  };

  explicit TimedEdgeStream(densest::EdgeStream& inner) : inner_(&inner) {}

  /// Closes the last pass window; call when the solve returns.
  void Finish() {
    if (open_) passes_.back().window_s = SecondsSince(pass_start_);
    open_ = false;
  }
  const std::vector<Pass>& passes() const { return passes_; }

  void Reset() override {
    Finish();
    passes_.emplace_back();
    open_ = true;
    pass_start_ = Clock::now();
    inner_->Reset();
  }
  bool Next(densest::Edge* e) override {
    const Clock::time_point t0 = Clock::now();
    const bool got = inner_->Next(e);
    Count(t0, got ? 1 : 0);
    return got;
  }
  size_t NextBatch(densest::Edge* buf, size_t cap) override {
    const Clock::time_point t0 = Clock::now();
    const size_t got = inner_->NextBatch(buf, cap);
    Count(t0, got);
    return got;
  }
  std::span<const densest::Edge> NextView(densest::Edge* scratch,
                                          size_t cap) override {
    const Clock::time_point t0 = Clock::now();
    std::span<const densest::Edge> view = inner_->NextView(scratch, cap);
    Count(t0, view.size());
    return view;
  }
  densest::Status status() const override { return inner_->status(); }
  densest::IoRetryStats io_retry_stats() const override {
    return inner_->io_retry_stats();
  }
  bool HasUnitWeights() const override { return inner_->HasUnitWeights(); }
  const densest::UndirectedGraph* UndirectedCsrView() const override {
    return inner_->UndirectedCsrView();
  }
  const densest::DirectedGraph* DirectedCsrView() const override {
    return inner_->DirectedCsrView();
  }
  densest::NodeId num_nodes() const override { return inner_->num_nodes(); }
  densest::EdgeId SizeHint() const override { return inner_->SizeHint(); }

 private:
  void Count(Clock::time_point t0, size_t edges) {
    if (passes_.empty()) passes_.emplace_back();  // read before any Reset
    passes_.back().read_s += SecondsSince(t0);
    passes_.back().edges += edges;
  }

  densest::EdgeStream* inner_;
  std::vector<Pass> passes_;
  bool open_ = false;
  Clock::time_point pass_start_;
};

/// Times every read of an UpdateStream.
class TimedUpdateStream final : public densest::UpdateStream {
 public:
  explicit TimedUpdateStream(densest::UpdateStream& inner) : inner_(&inner) {}

  double read_s() const { return read_s_; }

  void Reset() override { inner_->Reset(); }
  bool Next(densest::EdgeUpdate* u) override {
    const Clock::time_point t0 = Clock::now();
    const bool got = inner_->Next(u);
    read_s_ += SecondsSince(t0);
    return got;
  }
  size_t NextBatch(densest::EdgeUpdate* buf, size_t cap) override {
    const Clock::time_point t0 = Clock::now();
    const size_t got = inner_->NextBatch(buf, cap);
    read_s_ += SecondsSince(t0);
    return got;
  }
  uint64_t Skip(uint64_t n) override { return inner_->Skip(n); }
  densest::Status status() const override { return inner_->status(); }
  densest::IoRetryStats io_retry_stats() const override {
    return inner_->io_retry_stats();
  }
  densest::NodeId num_nodes() const override { return inner_->num_nodes(); }
  uint64_t SizeHint() const override { return inner_->SizeHint(); }

 private:
  densest::UpdateStream* inner_;
  double read_s_ = 0;
};

/// Times every publication into an AnswerSink (the serving plane).
class TimedAnswerSink final : public densest::AnswerSink {
 public:
  explicit TimedAnswerSink(densest::AnswerSink& inner) : inner_(&inner) {}

  /// Publication latencies, microseconds, in publication order.
  const std::vector<double>& publish_us() const { return publish_us_; }

  void Publish(const densest::Answer& answer,
               std::span<const densest::NodeId> members,
               uint64_t prefix_updates) override {
    const Clock::time_point t0 = Clock::now();
    inner_->Publish(answer, members, prefix_updates);
    publish_us_.push_back(1e6 * SecondsSince(t0));
  }

 private:
  densest::AnswerSink* inner_;
  std::vector<double> publish_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_H_

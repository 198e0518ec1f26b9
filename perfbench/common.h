// Shared plumbing of the perfbench binary: arguments, the metric report and
// its JSON line, process-level probes (CPU time, peak RSS), summary
// statistics, and the benchmark-owned input generators.
//
// The generators live here rather than in the library so that the inputs a
// seed produces stay fixed while the library's own generators evolve.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;              ///< scratch files, inside the checkout
  std::vector<double> ladder;        ///< serve-window offered batch rates, 1/s
  double nominal_rate = 0;           ///< rate serve.query_p50/p99 are at
  double slo_p99_us = 0;             ///< p99 limit for serve.max_qps_at_slo
  std::vector<int> query_mix;        ///< density/membership/snapshot weights
};

/// What one invocation prints: every metric by name with its unit, plus the
/// operation tally. Any failed output check marks the run incorrect.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records one failed operation or output check, with a reason on stderr.
  void Fail(const std::string& what);
  /// Counts operations attempted (solves, updates, query batches, checks).
  void Attempt(uint64_t n = 1) { attempted_ += n; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU seconds (all threads, user + system).
double ProcessCpuSeconds();
/// CPU seconds of the calling thread (user + system).
double ThreadCpuSeconds();
/// Peak resident set of this process so far, MiB.
double PeakRssMb();

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

/// SplitMix64: the benchmark's own deterministic generator stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Mixes a workload tag into the user seed so workloads draw unrelated
/// streams from one --seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Heavy-tailed undirected simple graph: Chung-Lu endpoint weights
/// w_i ~ (i + 10)^(-1/(exponent-1)) over `n` nodes with ids shuffled, plus one
/// planted block of `block` nodes joined with probability `block_p`.
/// Self-loops and duplicates are dropped; edges keep generation order.
std::vector<densest::Edge> ChungLuWithBlock(densest::NodeId n, uint64_t m,
                                            double exponent,
                                            densest::NodeId block,
                                            double block_p, uint64_t seed);

/// R-MAT arcs on 2^scale nodes with twitter-sim skew (a,b,c = .55,.20,.15),
/// plus a celebrity block: `followers` nodes each following every one of
/// `celebs` nodes with probability 0.85. Duplicates and self-loops dropped.
std::vector<densest::Edge> RmatTwitterShape(int scale, uint64_t m,
                                            densest::NodeId celebs,
                                            densest::NodeId followers,
                                            uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

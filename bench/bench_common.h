// Copyright 2026 The densest Authors.
// Shared helpers for the reproduction harness binaries: banner printing,
// aligned table output, CSV persistence, and the thread-CPU clock and
// bootstrap interval the paired-trial gates judge with.

#ifndef DENSEST_BENCH_BENCH_COMMON_H_
#define DENSEST_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "common/random.h"
#include "io/bench_json.h"
#include "io/csv_writer.h"

namespace densest::bench {

/// Prints the standard banner tying a binary to its paper artifact.
inline void Banner(const std::string& artifact, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s  (Bahmani, Kumar, Vassilvitskii, VLDB 2012)\n",
              artifact.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("==============================================================\n");
}

/// Ensures ./bench_results exists and returns the CSV path for `name`.
/// Fails with IOError when the directory cannot be created (the old POSIX
/// mkdir call ignored errors, so the CSV writer failed silently later).
inline StatusOr<std::string> CsvPath(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) {
    return Status::IOError("cannot create bench_results/: " + ec.message());
  }
  return "bench_results/" + name + ".csv";
}

/// Opens the CSV for a harness binary; on failure returns the error status,
/// and the caller just skips CSV output.
inline StatusOr<CsvWriter> OpenCsv(const std::string& name,
                                   const std::vector<std::string>& header) {
  StatusOr<std::string> path = CsvPath(name);
  if (!path.ok()) return path.status();
  return CsvWriter::Open(*path, header);
}

/// Machine-readable metrics sink, now implemented in the library
/// (io/bench_json.h) so its serialization — key escaping, NaN/inf -> null —
/// is unit-tested instead of silently emitting invalid JSON here.
using BenchJson = ::densest::BenchJson;

/// Calling-thread CPU seconds (CLOCK_THREAD_CPUTIME_ID). Unlike wall-clock
/// time it excludes the vCPU steal and preemption of a shared host.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double MedianOf(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

struct MedianCi {
  double median = 0;
  double lo = 0;  // 2.5th percentile of the bootstrap medians
  double hi = 0;  // 97.5th percentile
};

/// Median of `samples` with a percentile-bootstrap 95% confidence interval
/// (fixed seed, so a rerun on the same samples gives the same interval).
inline MedianCi BootstrapMedianCi(const std::vector<double>& samples) {
  constexpr int kResamples = 2000;
  Rng rng(0xb0075);
  std::vector<double> medians(kResamples);
  std::vector<double> resample(samples.size());
  for (double& m : medians) {
    for (double& x : resample) x = samples[rng.UniformU64(samples.size())];
    m = MedianOf(resample);
  }
  std::sort(medians.begin(), medians.end());
  return MedianCi{.median = MedianOf(samples),
                  .lo = medians[kResamples / 40],
                  .hi = medians[kResamples - 1 - kResamples / 40]};
}

}  // namespace densest::bench

#endif  // DENSEST_BENCH_BENCH_COMMON_H_

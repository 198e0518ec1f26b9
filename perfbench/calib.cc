// Calibration kernel, run by traced runs only: single-thread streaming-read
// bandwidth and independent random 8-byte reads per second over a buffer of
// at least four times the last-level cache, so per-layer throughputs can be
// read relative to this machine.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

volatile uint64_t g_sink = 0;  // keeps the timed reads observable

}  // namespace

void RunCalibration(Report& report) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  // Four times the last-level cache, rounded up to whole 256 MiB steps
  // (a 300 MiB L3 gives 1280 MiB), and never less than 256 MiB.
  constexpr uint64_t kStep = uint64_t{256} << 20;
  const uint64_t four_llc = 4 * static_cast<uint64_t>(std::max(llc, 0L));
  const uint64_t bytes = std::max<uint64_t>(
      (four_llc + kStep - 1) / kStep * kStep, kStep);
  const size_t words = bytes / sizeof(uint64_t);
  std::vector<uint64_t> buf(words);
  for (size_t i = 0; i < words; ++i) buf[i] = i;

  std::vector<double> gbps;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    uint64_t sum = 0;
    for (size_t i = 0; i < words; ++i) sum += buf[i];
    const double s = SecondsSince(t0);
    g_sink = g_sink + sum;
    gbps.push_back(static_cast<double>(bytes) / s / 1e9);
  }

  constexpr uint64_t kReads = uint64_t{1} << 24;
  std::vector<double> rate;
  Rng rng(0x5eed);
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t x = rng.Next() | 1;
    uint64_t sum = 0;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kReads; ++i) {
      x ^= x << 13;  // xorshift64: independent addresses, no dependency
      x ^= x >> 7;   // on the loaded values
      x ^= x << 17;
      sum += buf[(x >> 11) % words];
    }
    const double s = SecondsSince(t0);
    g_sink = g_sink + sum;
    rate.push_back(static_cast<double>(kReads) / s);
  }

  const double buffer_mb = static_cast<double>(bytes) / (1 << 20);
  report.Add("calib.stream_gbps", Median(gbps), "GB/s");
  report.Add("calib.stream_buffer_mb", buffer_mb, "MiB");
  report.Add("calib.random_reads_per_s", Median(rate), "1/s");
  report.Add("calib.random_buffer_mb", buffer_mb, "MiB");
}

}  // namespace perfbench

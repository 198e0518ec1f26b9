// The benchmark's workloads and its calibration kernel. Each adds its
// end-to-end and per-layer metrics to the report and records every failed
// operation or output check in it.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunStreamFile(const Args& args, Report& report);
void RunCSearchMem(const Args& args, Report& report);
void RunMrSpill(const Args& args, Report& report);
void RunServeWindow(const Args& args, Report& report);

/// Streaming-read bandwidth and random 8-byte read rate of this machine,
/// over a buffer at least four times the last-level cache.
void RunCalibration(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// perfbench: the repository benchmark program. Generates one seeded workload,
// drives it through the library's public entry points, checks every output,
// and prints one JSON line with the metrics by name and unit. perfbench/run.py
// builds it, passes the serving ladder from perfbench/workloads.json, and
// selects the metric set the run reports.
//
//   perfbench --workload=stream-file --seed=1 --seconds=10 --trace=0
//             --data-dir=DIR [--ladder=R1,R2,...] [--nominal-rate=R]
//             [--slo-p99-us=U] [--query-mix=D,M,S]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "graph/types.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Report;

std::vector<double> ParseList(const std::string& s) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    out.push_back(std::strtod(s.substr(pos, end - pos).c_str(), nullptr));
    pos = end + 1;
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2), value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "data-dir") {
      args->data_dir = value;
    } else if (key == "ladder") {
      args->ladder = ParseList(value);
    } else if (key == "nominal-rate") {
      args->nominal_rate = std::strtod(value.c_str(), nullptr);
    } else if (key == "slo-p99-us") {
      args->slo_p99_us = std::strtod(value.c_str(), nullptr);
    } else if (key == "query-mix") {
      for (double w : ParseList(value)) args->query_mix.push_back(int(w));
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->data_dir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --data-dir=DIR [serving options]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.data_dir.c_str());
    return 2;
  }

  Report report;
  if (args.workload == "stream-file") {
    perfbench::RunStreamFile(args, report);
  } else if (args.workload == "csearch-mem") {
    perfbench::RunCSearchMem(args, report);
  } else if (args.workload == "mr-spill") {
    perfbench::RunMrSpill(args, report);
  } else if (args.workload == "serve-window") {
    perfbench::RunServeWindow(args, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(args.data_dir, ec);

  if (args.trace) {
    perfbench::RunCalibration(report);
    const double calib = report.Get("calib.stream_gbps");
    if (report.Has("stream.read_gbps")) {
      report.Add("stream.read_frac_of_calib",
                 report.Get("stream.read_gbps") / calib, "ratio");
    }
    if (report.Has("pass_engine.scan_edges_per_s")) {
      // The scan kernel consumes sizeof(Edge) bytes per edge.
      report.Add("pass_engine.scan_frac_of_calib",
                 report.Get("pass_engine.scan_edges_per_s") *
                     sizeof(densest::Edge) / 1e9 / calib,
                 "ratio");
    }
  }
  report.Add("ok_frac",
             report.attempted() == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(report.failed()) /
                             static_cast<double>(report.attempted()),
             "ratio");
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the perfbench binary
from source with CMake (build tree under $CARGO_TARGET_DIR, default
.bench_build), runs one workload, and prints as the last line of standard
output one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics; a layer a workload does not exercise reports
0. The serving ladder, the p99 limit and the query mix come from
perfbench/workloads.json. Exits 2 or 3 without a result if the build or the
run fails. If an output check failed, prints the result with "correct":
false (a metric the run stopped before measuring reads 0) and exits 1.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    cmake_dir = build_dir / "cmake"
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(cmake_dir), "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return cmake_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        config = json.loads((BENCH_DIR / "workloads.json").read_text())
    except (OSError, ValueError) as e:
        log(f"cannot read the benchmark definition: {e}")
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    # Every per-layer metric must name the end-to-end metric it should move.
    if {m["name"] for m in bench["per_layer"]} != set(config["per_layer"]):
        log("per_layer metrics differ between BENCHMARK.json and "
            "perfbench/workloads.json")
        return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    serve = config["serve"]
    cmd = [
        str(binary),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--data-dir={build_dir / 'data' / args.workload}",
        "--ladder=" + ",".join(str(r) for r in serve["ladder_batches_per_s"]),
        f"--nominal-rate={serve['nominal_batches_per_s']}",
        f"--slo-p99-us={serve['slo_p99_us']}",
        "--query-mix=" + ",".join(str(w) for w in serve["query_mix"]),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result line (exit {proc.returncode})")
        return 2

    # Report exactly the metric set of this mode, in BENCHMARK.json's units.
    # A run whose output check failed stops early and may lack metrics.
    correct = bool(result["correct"]) and proc.returncode == 0
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if correct and not args.trace:
                log(f"end-to-end metric {m['name']} was not measured")
                return 2
            got = {"value": 0, "unit": m["unit"]}  # layer idle, or run failed
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']} != declared {m['unit']}")
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    out = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload udf_scan|analytic|oltp --seed N \
        --seconds S --trace 0|1

Run from the repository root. The engine and the harness are built with CMake
(Release) into the directory named by CARGO_TARGET_DIR, or .bench_build when
it is unset. The harness prints a human-readable report; this script then
prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics, where metrics holds the end_to_end metrics of
BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

RESULT_PREFIX = "PERFBENCH_RESULT "
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "jaguar_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so the result stays the last stdout line.
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_harness(binary, args, run_dir):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(run_dir)]
    # A process group of its own lets a timeout kill the harness together
    # with any executor processes it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    # Executor children of a harness that crashed would outlive it otherwise.
    kill_group(proc.pid)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"harness exited with status {proc.returncode}")
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the repository root (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(root, build_dir)
    run_dir = build_dir / "run" / f"{args.workload}-{os.getpid()}"
    out = run_harness(build_dir / "jaguar_perfbench", args, run_dir)

    result = None
    for line in out.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None:
        fail("harness printed no result line")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"harness did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print("context: " + json.dumps(result["context"]))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

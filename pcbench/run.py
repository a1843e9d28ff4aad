#!/usr/bin/env python3
"""Repository benchmark entry point (see pcbench/README.md).

    python3 pcbench/run.py --workload full_mem|delta_file|fleet \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the pccheck sources and the
benchmark into .bench_build/pcbench (incremental after the first run),
runs the benchmark's own unit tests, then runs the workload in its own
process. The workload's report goes to stdout; its last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. Build output and
diagnostics go to stderr. Any failure - build, unit test, correctness
gate, a metric set other than BENCHMARK.json's list for the mode that
ran - exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pcbench")
# File-backed media (delta_file's checkpoint file), kept between runs.
MEDIA = os.path.join(ROOT, ".bench_build", "media")
WORKLOADS = ("full_mem", "delta_file", "fleet")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            fail("build failed: " + " ".join(step))


def declared_metrics(trace):
    """{name: unit} BENCHMARK.json lists for --trace @trace."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
        metrics = spec["per_layer" if trace else "end_to_end"]
        return {m["name"]: m["unit"] for m in metrics}
    except (OSError, ValueError, KeyError, TypeError) as error:
        fail(f"cannot read the metric list from BENCHMARK.json: {error}")


def run(cmd):
    """Run @cmd to completion (killed at the timeout); (code, stdout)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("timed out: " + " ".join(cmd))
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    declared = declared_metrics(args.trace)
    build()
    code, out = run([os.path.join(BUILD, "pcbench_selftest")])
    sys.stderr.write(out)
    if code != 0:
        fail("benchmark unit tests failed")

    code, out = run([os.path.join(BUILD, "pcbench"),
                     "--workload", args.workload,
                     "--seed", str(args.seed),
                     "--seconds", repr(args.seconds),
                     "--trace", str(args.trace),
                     "--workdir", MEDIA])
    if code != 0:
        sys.stderr.write(out)
        fail(f"workload {args.workload} failed (exit {code})")
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        fail("workload printed no result line")
    if (set(result) != {"correct", "attempted", "failed", "metrics"}
            or result["correct"] is not True):
        sys.stderr.write(out)
        fail("malformed or incorrect result")
    printed = {name: metric.get("unit")
               for name, metric in result["metrics"].items()}
    if printed != declared:
        sys.stderr.write(out)
        differ = sorted(name for name in set(printed) | set(declared)
                        if printed.get(name) != declared.get(name))
        fail("printed metrics differ from BENCHMARK.json: "
             + ", ".join(differ))
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

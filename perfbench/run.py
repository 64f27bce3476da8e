#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the library and the benchmark program (Release), then runs one
workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build directory is $CARGO_TARGET_DIR
when set, else .bench_build, relative to the working directory. Build
output goes to standard error; the last line of standard output is the
benchmark's JSON result. BENCHMARK.json is the one list of metric names
and units: a traced run reads 0 for a per-layer metric of a layer the
workload bypasses. The exit status is non-zero when the build fails, when
any output or harness-isolation check fails, or when the workload reports
a metric BENCHMARK.json does not list, in another unit, or leaves out an
end-to-end metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("survey_stream", "campaign_cold", "portal_overload")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"command failed ({result.returncode}): {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found beside perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"benchmark binary missing after build: {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        fail(f"workload {args.workload} failed (exit {proc.returncode})")

    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    got = result["metrics"]
    unknown = sorted(set(got) - set(declared))
    wrong_unit = sorted(n for n in set(got) & set(declared)
                        if got[n]["unit"] != declared[n])
    missing = sorted(set(declared) - set(got)) if section == "end_to_end" else []
    result["metrics"] = {
        name: got.get(name, {"value": 0, "unit": unit})
        for name, unit in declared.items()}
    print(json.dumps(result))
    if unknown or wrong_unit or missing:
        fail(f"reported metrics disagree with BENCHMARK.json {section}: "
             f"unknown {unknown}, wrong unit {wrong_unit}, missing {missing}")


if __name__ == "__main__":
    main()

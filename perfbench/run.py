#!/usr/bin/env python3
"""End-to-end KV benchmark entry point.

Builds the benchmark (and the serving stack it links, from ../src) with
CMake into the build directory, then runs one workload:

    python3 perfbench/run.py --workload cache_read --seed 1 --seconds 20 --trace 0

Run it from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; with --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. The exit code is non-zero when the build fails or any
response, recovery or replica check fails.

    python3 perfbench/run.py --selfcheck

runs every workload briefly in both modes on a shrunken dataset and checks
that each metric BENCHMARK.json names is printed with its unit and that the
correctness gate ran.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_JSON = os.path.join(ROOT, "BENCHMARK.json")
SOURCE_DIR = os.path.join(ROOT, "perfbench")
# The build tree; CARGO_TARGET_DIR names the scratch directory a harness
# reserves for builds, whatever the language.
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no src/ tree next to perfbench/; nothing to build")
        return None
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "kvbench", "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "kvbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs kvbench, echoing its output; returns (exit code, result dict)."""
    run_dir = os.path.relpath(os.path.join(BUILD_DIR, "run"), ROOT)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", run_dir] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        # kvbench removes its data directory itself; this covers a crash.
        # The traced run's <workload>.spans.tsv beside it is kept.
        shutil.rmtree(os.path.join(ROOT, run_dir, workload), ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            log("perfbench: last line of kvbench output is not JSON")
    return proc.returncode, result


def selfcheck(binary):
    with open(BENCH_JSON) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = run_once(binary, w["name"], 7, 2, trace, ["--keys-scale", "0.05"])
            where = f"{w['name']} --trace {trace}"
            if code != 0 or result is None:
                failures.append(f"{where}: exit {code}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{where}: correctness gate reported {result}")
            metrics = result["metrics"]
            for m in listed:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    failures.append(f"{where}: metric {m['name']} missing or wrong unit")
            extra = set(metrics) - {m["name"] for m in listed}
            if extra:
                failures.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for f in failures:
        log("SELFCHECK FAIL " + f)
    print(json.dumps({"selfcheck": "fail" if failures else "pass",
                      "failures": len(failures)}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    binary = build()
    if binary is None:
        return 1
    if args.selfcheck:
        return selfcheck(binary)
    if not args.workload:
        parser.error("--workload is required")
    code, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

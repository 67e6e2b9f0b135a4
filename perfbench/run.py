#!/usr/bin/env python3
"""Repo benchmark: build perfbench from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds an
optimised perfbench under .bench_build/ (later runs only re-check the
build). The workload runs single-threaded in one process with its inputs
made from --seed. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics. The line before
it is the full report (provenance, every metric with its unit and clock).

Workloads: serve_steady, cluster_failover, bmac_saturate, ledger_recover.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_steady", "cluster_failover", "bmac_saturate",
             "ledger_recover")
RUN_TIMEOUT_S = 170


def source_id():
    """The commit when the checkout is a git repository, else a hash of the
    sources the benchmark builds and reads."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=True)
            return "git:" + head.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "configs", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2**53 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2^53) and --seconds positive")

    for needed in ("src", "configs"):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            print(f"run.py: {needed}/ is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, ".bench_build", f"run-{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", ROOT, "--tmp", tmp, "--source-id", source_id()]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if result.returncode != 0:
        return result.returncode
    problem = manifest_mismatch(result.stdout, args.trace)
    if problem:
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


def manifest_mismatch(stdout, trace):
    """The printed metrics must be exactly the ones BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    listed = manifest["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != expected:
        return ("printed metrics differ from BENCHMARK.json: "
                f"{sorted(set(printed.items()) ^ set(expected.items()))}")
    return ""


if __name__ == "__main__":
    sys.exit(main())

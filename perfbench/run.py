#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
engine library and the perfbench program in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. Build output goes to stderr. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json for --trace 0 and every
per-layer metric for --trace 1. The line before it carries the details
(per-phase counts, answer digest, environment, span shares). Any build
failure, crash, timeout or malformed program output exits non-zero without
a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Seed whose answer digests are committed in expected_digests.json.
DEFAULT_SEED = 1


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    # Configuring every time is cheap once cached, and recovers from a
    # configure step that failed earlier.
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed: {e}")
        return 1

    trace_out = os.path.join(build_root, f"trace-{args.workload}-{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench printed no result")
        return 1

    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in raw["metrics"].items()}
    if got != want:
        log(f"metric set differs from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        return 1

    correct, attempted, failed = raw["correct"], raw["attempted"], raw["failed"]
    with open(os.path.join(HERE, "expected_digests.json")) as f:
        committed = json.load(f)
    if args.seed == DEFAULT_SEED or args.workload in committed["seed_independent"]:
        expected = committed["digests"].get(args.workload)
        attempted += 1
        if raw["digest"] != expected:
            log(f"answer digest {raw['digest']} != committed {expected}")
            correct = False
            failed += 1

    detail = {"workload": args.workload, "seed": args.seed, "digest": raw["digest"],
              "detail": raw["detail"]}
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": raw["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the steadybench benchmark.

Run from the root of the repository:

    python3 steadybench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark binary (cargo, offline, into $CARGO_TARGET_DIR,
default .bench_build), runs the workload once in its own process and
passes its result through: the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

    python3 steadybench/run.py --self-check [--workload NAME ...] [--runs R]
                               [--seed N] [--seconds S]

is the steadiness self-check: it runs each workload R times at the same
seed, prints every end-to-end metric's median, quartiles and spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json, and
exits nonzero if a spread exceeds its bound or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# Longest a single measured run may take before it is killed; the
# caller allows 180 s per run after the first build.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"steadybench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the binary; returns its path, or None if the build fails."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    return os.path.join(target, "release", "steadybench")


def run_once(binary, workload, seed, seconds, trace):
    """One measured run in its own process; returns the parsed result
    line, or None if the run failed or timed out."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{workload} seed {seed}: exit code {proc.returncode}")
        return None
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload} seed {seed}: no result line")
        return None


def spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median), quartiles as
    statistics.quantiles(values, n=4) gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def self_check(args, binary):
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for name in names:
        samples = {m: [] for m in bounds}
        for i in range(args.runs):
            t = time.monotonic()
            res = run_once(binary, name, args.seed, seconds, 0)
            wall = time.monotonic() - t
            if res is None or not res["correct"] or res["failed"]:
                log(f"{name} run {i + 1}: FAILED {res}")
                ok = False
                continue
            for m in bounds:
                samples[m].append(res["metrics"][m]["value"])
            log(f"{name} run {i + 1}: {wall:.1f} s, " + ", ".join(
                f"{m}={res['metrics'][m]['value']:.6g}" for m in bounds))
        print(f"\n{name}: {args.runs} runs of {seconds} s at seed {args.seed}")
        print(f"  {'metric':<14} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m, bound in bounds.items():
            if len(samples[m]) < 2:
                continue
            med, q1, q3, s = spread(samples[m])
            verdict = "ok" if s <= bound else "OVER"
            ok = ok and s <= bound
            print(f"  {m:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>8.4f} {bound:>6}  {verdict}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args()
    if not args.self_check and (not args.workload or len(args.workload) != 1
                                or args.seconds is None):
        p.error("a measured run needs exactly one --workload and --seconds")
    if args.runs < 2:
        p.error("--runs needs at least 2")

    binary = build()
    if binary is None:
        return 1
    if args.self_check:
        return self_check(args, binary)
    res = run_once(binary, args.workload[0], args.seed, args.seconds, args.trace)
    if res is None:
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""kdom's end-to-end benchmark: build, run one workload, or check steadiness.

One run (the form the benchmark contract fixes):

    python3 perfbench/run.py --workload mst_gnm --seed 7 --seconds 30 --trace 0

builds `perfbench/` (a cargo package of its own) in release mode, runs the
workload in a fresh process, and passes its output through. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. The exit code is the workload's: 0 when every output was
certified.

Steadiness report:

    python3 perfbench/run.py --steady [--runs 10] [--workloads ...]

runs two sets of each workload, each with seeds 1..runs. For every end-to-end
metric it prints each set's median, quartiles and spread (interquartile
distance over the median) against the bound in BENCHMARK.json, and names every
metric, setup_s included, whose spread exceeds its bound or whose two medians
differ by more than the bound. Any such metric fails the report. A held-out
seed, traced and untraced, must run clean.

Run it from the root of the repository. Build outputs go to
$CARGO_TARGET_DIR (default perfbench/target); spans of traced runs and the
server socket go to perfbench/out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ["mst_gnm", "mst_path", "serve_mixed"]
RUN_TIMEOUT_S = 175
FIRST_SEED = 1
HOLDOUT_SEED = 1000
SETS = 2
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary and returns its path."""
    for need in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{os.path.join(ROOT, need)} is missing: run from a full kdom checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           os.path.join("perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    exe = os.path.join(ROOT, target, "release", "kdom-perfbench")
    if not os.path.isfile(exe):
        fail(f"built binary not found at {exe}")
    return exe


def run_once(exe, workload, seed, seconds, trace, echo):
    """Runs one workload in a fresh process; returns (exit code, last line)."""
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", os.path.join("perfbench", "out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    return proc.returncode, (lines[-1] if lines else "")


def steady(exe, args):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    flagged = []
    for workload in args.workloads:
        medians = []
        for s in range(SETS):
            values = {name: [] for name in bounds}
            for i in range(args.runs):
                seed = FIRST_SEED + i
                code, last = run_once(exe, workload, seed, seconds, 0, echo=False)
                result = json.loads(last) if last.startswith("{") else None
                if code != 0 or result is None or not result["correct"]:
                    flagged.append(f"{workload} seed {seed}: exit {code}, result {last[:200]}")
                    continue
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} set {s + 1} seed {seed}: " + " ".join(
                    f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
            print(f"\n{workload}, set {s + 1}, {args.runs} seeds:")
            print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
            set_medians = {}
            for name, m in bounds.items():
                v = values[name]
                if len(v) < 2:
                    flagged.append(f"{workload} {name}: fewer than two clean runs")
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                set_medians[name] = med
                mark = ""
                if spread > m["bound"]:
                    mark = "  EXCEEDS BOUND"
                    flagged.append(f"{workload} set {s + 1} {name}: spread {spread:.4f} > bound {m['bound']}")
                elif spread > m["bound"] / 3:
                    mark = "  above a third of the bound"
                print(f"  {name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                      f"{m['bound']:>6}{mark}")
            medians.append(set_medians)
        for s in range(1, len(medians)):
            for name, m in bounds.items():
                a, b = medians[0].get(name), medians[s].get(name)
                if not a or b is None:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                print(f"  set {s + 1} vs set 1, {name}: {worse:+.4f} (worse is positive)")
                if abs(worse) > m["bound"]:
                    flagged.append(f"{workload} {name}: set {s + 1} median differs by {worse:+.4f}")
        for trace in (0, 1):
            code, last = run_once(exe, workload, HOLDOUT_SEED, seconds, trace, echo=False)
            clean = code == 0 and last.startswith("{") and json.loads(last)["correct"]
            print(f"  held-out seed {HOLDOUT_SEED}, trace {trace}: {'clean' if clean else 'NOT CLEAN'}")
            if not clean:
                flagged.append(f"{workload} held-out seed {HOLDOUT_SEED} trace {trace}: {last[:200]}")
    print()
    if flagged:
        print("steadiness: FAILED")
        for f in flagged:
            print(f"  {f}")
        return 1
    print("steadiness: every spread and set-to-set change within its bound; held-out runs clean")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = p.parse_args()
    if args.steady:
        sys.exit(steady(build(), args))
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required (or use --steady)")
    code, _ = run_once(build(), args.workload, args.seed, args.seconds, args.trace, echo=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run the benchmark command repeatedly and summarise each metric's spread.

Usage (from the repository root):

    python3 benchmark/repeat.py [--runs K] [--sets S] [--first-seed N]
                                [--trace 0|1] [--workloads a,b] [--json FILE]

Reads BENCHMARK.json, then for each of S sets runs the command K times per
workload, a new seed each time, alternating the workload order between
rounds. For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) / median
against the metric's bound, and the (max - min) / median range. With S >= 2
it also prints how far each later set's median moved from the first set's,
in the metric's worse direction, against the bound. Exits 1 if any run
failed its checks or a spread or a move exceeded its bound. Standard library
only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        sys.stderr.write(proc.stderr[-2000:])
    return ok, result, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else None


def share(x):
    return "-" if x is None else f"{x:.2%}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--json", help="also write every run's metrics here")
    opts = ap.parse_args()
    if opts.runs < 2:
        ap.error("--runs must be at least 2 to take quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in workloads if w in opts.workloads.split(",")]
    declared = bench["per_layer"] if opts.trace else bench["end_to_end"]
    meta = {m["name"]: m for m in declared}

    # values[set][workload][metric] -> list of run values
    values = [{w: {m: [] for m in meta} for w in workloads} for _ in range(opts.sets)]
    runs = []
    failures = 0
    seed = opts.first_seed
    for s in range(opts.sets):
        for k in range(opts.runs):
            order = workloads if k % 2 == 0 else list(reversed(workloads))
            for w in order:
                ok, result, wall = run_once(bench["command"], w, seed,
                                            bench["run_seconds"], opts.trace)
                print(f"set {s} run {k} {w} seed {seed}: {'ok' if ok else 'FAILED'} "
                      f"({wall:.1f} s)", flush=True)
                runs.append({"set": s, "workload": w, "seed": seed, "ok": ok,
                             "wall_s": wall, "result": result})
                if not ok:
                    failures += 1
                    continue
                for m in meta:
                    values[s][w][m].append(result["metrics"][m]["value"])
            seed += 1

    bad = failures
    print()
    print(f"{'set':>3} {'workload':<14} {'metric':<22} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6} {'range':>7}  verdict")
    for s in range(opts.sets):
        for w in workloads:
            for m, info in meta.items():
                vals = values[s][w][m]
                if len(vals) < 2:
                    continue
                q1, med, q3, sp = spread(vals)
                rng = (max(vals) - min(vals)) / med if med else None
                bound = info.get("bound")
                verdict = ""
                if bound is not None:
                    verdict = ("TOO WIDE" if sp is None or sp > bound else
                               "steady" if sp <= bound / 3 else "within bound")
                    bad += verdict == "TOO WIDE"
                print(f"{s:>3} {w:<14} {m:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{share(sp):>7} {bound if bound is not None else '-':>6} "
                      f"{share(rng):>7}  {verdict}")

    if opts.sets >= 2:
        print()
        print(f"{'set':>3} {'workload':<14} {'metric':<22} {'worse by':>9} {'bound':>6}")
        for s in range(1, opts.sets):
            for w in workloads:
                for m, info in meta.items():
                    if "bound" not in info or not values[0][w][m] or not values[s][w][m]:
                        continue
                    base = statistics.median(values[0][w][m])
                    now = statistics.median(values[s][w][m])
                    change = (now - base) / base if base else 0.0
                    worse = change if info["better"] == "lower" else -change
                    flag = "  EXCEEDS" if worse > info["bound"] else ""
                    bad += worse > info["bound"]
                    print(f"{s:>3} {w:<14} {m:<22} {worse:>9.2%} {info['bound']:>6}{flag}")

    if opts.json:
        Path(opts.json).write_text(json.dumps(runs, indent=1) + "\n")
    print(f"\n{failures} failed runs; {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

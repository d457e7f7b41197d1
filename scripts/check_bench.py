#!/usr/bin/env python3
"""Gate CI on bench regressions.

Every suite this script can gate is described by one declarative table
(GATES below): a list of (kind, metric, limit) rows applied to a flat
metric dict extracted from that suite's artifact. Adding a gate is a
one-line diff to the table, not a new flag-plus-function pair.

Gate kinds:

  ceiling    metric <= limit
  floor      metric >= limit
  max_ratio  metric[0] / metric[1] <= limit

A metric missing from the artifact fails its gate, so referencing a
metric also asserts its presence (e.g. every serve mix must appear).

Suites:

  repro      BASELINE SMOKE positionals: a fresh `repro_figures
             --bench-json` report against the committed full-scale
             BENCH_repro.json. The smoke run uses a reduced --scale, so
             the baseline's total_secs is scaled by the job-count ratio
             (floored at MIN_EXPECTED_SECS — the gate is for
             order-of-magnitude regressions, not scheduler jitter)
             before applying --tolerance. The telemetry stage is also
             gated on jobs/sec (scale-invariant), and peak RSS on
             --max-rss-ratio times the baseline's high-water mark.
  placement  --placement LOG: console log of `cargo bench --bench
             placement`; bounds the co-sharing policy's placement
             overhead relative to the baseline pass.
  streaming  --streaming LOG: console log of `cargo bench --bench
             streaming`; absolute ceilings per aggregator/producer bench.
  serve-bench
             --serve-bench LOG: console log of `cargo bench --bench
             serve`; absolute ceilings on the cold point and figure
             queries (`serve/point_cold`, `serve/figure_cold`).
  scaling    --scaling ONE MANY: two `repro_figures --bench-json`
             reports of the same run at 1 thread and at more threads.
             The multi-thread telemetry stage must not take longer than
             the 1-thread one (a relative speedup floor of 1.0, not an
             absolute time): adding threads must never make a run slower.
  serve      --serve JSON: a `serve_load` report; p99 latency ceilings
             per mix, a throughput floor and hit-rate floor on the
             cache-hit storm, and the >=10x storm-vs-cold speedup the
             memoization layer exists to provide. The report must also
             carry the `scenario` label (the service's cache-key
             dimension) and the response `digest`.
  classifier --classifier JSON: a `repro_figures --classifier-json`
             report; held-out forest accuracy must clear the floor and
             the predicted-vs-oracle goodput delta must sit inside the
             band (a null delta means the oracle arm never ran, which
             fails — the closed loop is the thing under test).
  reliability --reliability JSON: a `repro_figures --reliability-json`
             report; the simulated per-size-class optimal checkpoint
             interval must land within a band of the Young/Daly
             analytic optimum (worst-class ratio, either direction),
             the goodput frontier must degrade monotonically as MTBF
             shrinks, and the cluster-growth replay must hold the
             event-loop throughput floor. Null gated scalars (a study
             that never ran its sweep or growth legs) fail as missing.
  reliability-scaling
             --reliability-scaling ONE MANY: two `repro_figures
             --reliability-json` reports of the same study at 1 thread
             and at more threads. The study replays its arms in
             parallel, so the multi-thread `study_secs` must not exceed
             the 1-thread one.

--serve-compare FILE... additionally requires the response digests of
two or more serve_load reports to be identical — the byte-level
determinism check across thread budgets. Digests are only comparable
within one world, so the reports' `scenario` labels must agree too: a
digest match across different scenarios would be vacuous, and a label
mismatch means the runs were not measuring the same thing.

--selftest runs every suite against the committed fixture pair in
scripts/fixtures/ (one artifact that must pass, one that must trip the
gates) and exits non-zero if any gate misjudges either. CI's lint job
runs this, so the gate logic cannot rot silently.

usage: check_bench.py [BASELINE SMOKE] [--tolerance 2.0]
                      [--max-rss-ratio 1.5]
                      [--placement LOG] [--placement-overhead 5.0]
                      [--streaming LOG] [--serve-bench LOG]
                      [--scaling ONE MANY]
                      [--serve JSON] [--serve-compare JSON JSON...]
                      [--classifier JSON]
                      [--reliability JSON]
                      [--reliability-scaling ONE MANY]
                      [--selftest]
"""

import argparse
import json
import os
import re
import sys
from collections import namedtuple

# CI runners are noisy and a 2%-scale run finishes in about a second, so
# very small expected times are floored before applying the multiplier.
MIN_EXPECTED_SECS = 2.0

# One gate row: kind in {"ceiling", "floor", "max_ratio"}; metric is a
# key into the suite's flat metric dict (a (numerator, denominator) key
# pair for max_ratio).
Gate = namedtuple("Gate", "kind metric limit")

# Ceilings for the streaming-engine benches (seconds). Typical medians
# are 20-100x below these; the gate exists to catch an aggregator or
# producer falling off an algorithmic cliff, not scheduler jitter.
STREAMING_GATES = [
    Gate("ceiling", "sketch_push_merge_100k", 0.100),
    Gate("ceiling", "welford_push_merge_100k", 0.050),
    Gate("ceiling", "histogram_push_merge_100k", 0.050),
    Gate("ceiling", "stream_detail_30min_2gpu", 0.010),
]

# Ceilings for the query service's cold path (seconds): one uncached
# point query (median_run_min) and one uncached figure (fig9) over the
# bench's 2%-scale world. A miss computes only its own statistic: the
# dataset stores each GPU job's job-level aggregates and the service
# keeps its user statistics, so neither is rebuilt per query. On a
# 2-vCPU guest the medians read 33-38 us and 80-87 us; when every miss
# re-averaged all jobs on fresh par_map threads they read 391-542 us
# and 631-760 us. Each ceiling is 2-3x today's median and under half
# the old cost, so the old path fails even on a runner twice as fast.
SERVE_BENCH_GATES = [
    Gate("ceiling", "point_cold", 100e-6),
    Gate("ceiling", "figure_cold", 160e-6),
]

# Thread scaling of the telemetry stage: the multi-thread run's time
# over the 1-thread run's must not exceed 1.0, i.e. more threads may
# fail to help but must never hurt. Relative, so runner speed cancels.
SCALING_GATES = [
    Gate("max_ratio", ("many.telemetry.secs", "one.telemetry.secs"), 1.0),
]

# Gates for a `serve_load` report. Latency ceilings are generous
# absolutes (hits are microseconds, cold what-ifs re-simulate for
# ~100 ms at smoke scale); the floors are where the teeth are: the
# cache-hit storm must actually behave like a cache. The gate table is
# scenario-independent — every world must clear the same floors because
# a cache hit costs the same regardless of which scenario built the
# frozen state — but check_serve separately requires the `scenario`
# label so a report always records which world its digest describes.
SERVE_GATES = [
    Gate("ceiling", "point_flood.p99_ms", 250.0),
    Gate("ceiling", "cache_storm.p99_ms", 50.0),
    Gate("ceiling", "steady.p99_ms", 250.0),
    Gate("ceiling", "cold_ab.p99_ms", 30_000.0),
    Gate("floor", "cache_storm.qps", 1_000.0),
    Gate("floor", "cache_storm.hit_rate", 0.95),
    Gate("floor", "steady.hit_rate", 0.95),
    Gate("floor", "storm_speedup", 10.0),
]


# Gates for a `repro_figures --classifier-json` report. The accuracy
# floor is deliberately below the ~0.9 the forest reaches at smoke
# scale — the gate catches a broken feature/split/training path, not
# seed jitter. The goodput band bounds the cost of routing placement on
# predicted instead of oracle labels: a large negative delta means
# classifier errors are eating co-location goodput, a large positive
# one means the "oracle" arm is mislabeled. train/test floors assert
# the held-out split actually happened.
CLASSIFIER_GATES = [
    Gate("floor", "accuracy", 0.85),
    Gate("floor", "goodput_delta_pp", -10.0),
    Gate("ceiling", "goodput_delta_pp", 10.0),
    Gate("floor", "train_jobs", 50),
    Gate("floor", "test_jobs", 20),
]


# Gates for a `repro_figures --reliability-json` report. The sweep band
# is coarse on purpose: the simulated optimum comes off a geometric
# interval grid (default 5 points over a 16x range, so one grid step is
# ~2x), and the gate catches the overhead model decoupling from the
# Young/Daly prediction (the pre-fix failure mode was ~12x: write
# stalls were never debited, so the argmax pinned to the smallest
# interval). Frontier monotonicity has a small epsilon for scheduler
# noise. The growth floor gates the slowest growth replay's event loop,
# which CI runs at 32x the Table I fleet (14,336 GPUs). With
# `--scale 0.02 --seed 42 --reliability --growth 2,32` on a 2-vCPU
# guest (median of 3 runs), the 32x replay ran at 1,116 jobs/sec when
# placement sorted the whole fleet per call and at 4,883 after the
# sort-free placer and the sorted event schedule; the 2x replay ran at
# 24,378 and 97,087. A return to the per-call fleet sort falls below
# 2,000 jobs/sec.
RELIABILITY_GATES = [
    Gate("ceiling", "sweep_worst_ratio", 4.0),
    Gate("ceiling", "frontier_monotone_violation", 0.05),
    Gate("floor", "growth_min_jobs_per_sec", 2000.0),
]

# Thread scaling of the whole reliability study, whose independent
# replays (frontier, sweep and growth arms) run in parallel: the
# multi-thread study's wall time over the 1-thread one's must not
# exceed 1.0. Relative, like SCALING_GATES, so runner speed cancels.
RELIABILITY_SCALING_GATES = [
    Gate("max_ratio", ("many.study_secs", "one.study_secs"), 1.0),
]


def placement_gates(max_overhead):
    """The placement suite's one gate, parameterized by the CLI knob."""
    return [Gate("max_ratio",
                 ("contended_pass_coshare", "contended_pass_baseline"),
                 max_overhead)]


# `  contended_pass_baseline   median 475.30 us / iter  (min ...)`
MEDIAN_LINE = re.compile(r"^\s+(\S+)\s+median\s+([\d.]+)\s+(ns|us|ms|s)\s+/\s+iter")
UNIT_SECS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_medians(path):
    """Benchmark id -> median seconds, from a criterion console log."""
    medians = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                m = MEDIAN_LINE.match(line)
                if m:
                    medians[m.group(1)] = float(m.group(2)) * UNIT_SECS[m.group(3)]
    except OSError as exc:
        sys.exit(f"check_bench: cannot read {path}: {exc}")
    return medians


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"check_bench: cannot read {path}: {exc}")


def flatten_serve(report):
    """A serve_load report as a flat metric dict (mix fields dotted)."""
    metrics = {}
    for key, value in report.items():
        if key == "mixes":
            for mix, fields in value.items():
                for field, v in fields.items():
                    metrics[f"{mix}.{field}"] = v
        elif key == "cold_baseline":
            for field, v in value.items():
                metrics[f"cold_baseline.{field}"] = v
        elif isinstance(value, (int, float)):
            metrics[key] = value
    return metrics


def apply_gates(suite, metrics, gates):
    """Applies one suite's gate table; returns failure descriptions."""
    failures = []
    for gate in gates:
        keys = gate.metric if isinstance(gate.metric, tuple) else (gate.metric,)
        missing = [k for k in keys if k not in metrics]
        if missing:
            failures.append(f"{suite}: metric {missing[0]!r} missing "
                            f"(have: {sorted(metrics)})")
            print(f"{suite}: {gate.metric} MISSING")
            continue
        if gate.kind == "ceiling":
            value, ok = metrics[keys[0]], metrics[keys[0]] <= gate.limit
            desc = f"{keys[0]} = {value:g} (ceiling {gate.limit:g})"
        elif gate.kind == "floor":
            value, ok = metrics[keys[0]], metrics[keys[0]] >= gate.limit
            desc = f"{keys[0]} = {value:g} (floor {gate.limit:g})"
        elif gate.kind == "max_ratio":
            num, den = metrics[keys[0]], metrics[keys[1]]
            value = num / den if den > 0 else float("inf")
            ok = value <= gate.limit
            desc = (f"{keys[0]} / {keys[1]} = {value:.2f}x "
                    f"(limit {gate.limit:g}x)")
        else:
            raise AssertionError(f"unknown gate kind {gate.kind!r}")
        print(f"{suite}: {desc} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{suite}: {desc}")
    return failures


def check_serve(path):
    report = load(path)
    failures = apply_gates("serve", flatten_serve(report), SERVE_GATES)
    if "digest" not in report:
        failures.append(f"serve: {path} has no response digest")
    if "scenario" not in report:
        failures.append(f"serve: {path} has no scenario label — the "
                        f"report no longer records which world (cache-key "
                        f"dimension) its digest describes")
    return failures


def check_serve_compare(paths):
    digests = {}
    scenarios = {}
    for path in paths:
        report = load(path)
        digests[path] = report.get("digest", "<missing>")
        scenarios[path] = report.get("scenario", "<missing>")
        threads = report.get("threads", "?")
        print(f"serve-compare: {path} (threads {threads}, "
              f"scenario {scenarios[path]}) digest {digests[path]}")
    failures = []
    # Digests are only comparable within one world: a mismatch in the
    # scenario labels means the runs measured different frozen states,
    # so even an accidental digest match would prove nothing.
    if len(set(scenarios.values())) != 1:
        failures.append(f"serve-compare: scenario labels diverge across "
                        f"runs: {scenarios} — digests are only comparable "
                        f"within one scenario world")
    if len(set(digests.values())) != 1 or "<missing>" in digests.values():
        failures.append(f"serve-compare: response digests diverge across "
                        f"runs: {digests} — responses are no longer "
                        f"thread-budget independent")
    return failures


def check_classifier(path):
    report = load(path)
    # A null goodput_delta_pp (oracle arm never ran) drops out of the
    # metric dict here, so the band gates fail it as missing — the
    # closed predicted-vs-oracle loop is exactly what this suite gates.
    metrics = {k: v for k, v in report.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    return apply_gates("classifier", metrics, CLASSIFIER_GATES)


def check_reliability(path):
    report = load(path)
    # Null scalars (a sweep with no per-class verdict, a study that
    # never ran its growth leg) drop out of the metric dict, so the
    # gates fail them as missing — the legs are what this suite gates.
    metrics = {k: v for k, v in report.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    return apply_gates("reliability", metrics, RELIABILITY_GATES)


def check_reliability_scaling(one_path, many_path):
    metrics = {}
    for label, path in (("one", one_path), ("many", many_path)):
        report = load(path)
        if isinstance(report.get("study_secs"), (int, float)):
            metrics[f"{label}.study_secs"] = report["study_secs"]
    print(f"reliability-scaling: {one_path} vs {many_path}")
    return apply_gates("reliability-scaling", metrics,
                       RELIABILITY_SCALING_GATES)


def check_scaling(one_path, many_path):
    one, many = load(one_path), load(many_path)
    print(f"scaling: {one_path} (threads {one.get('threads', '?')}) vs "
          f"{many_path} (threads {many.get('threads', '?')})")
    failures = []
    if not one.get("threads", 0) < many.get("threads", 0):
        failures.append(f"scaling: {many_path} must run more threads than "
                        f"{one_path}, or the comparison proves nothing")
    metrics = {}
    for label, report in (("one", one), ("many", many)):
        stage = report.get("stages", {}).get("telemetry")
        if stage:
            metrics[f"{label}.telemetry.secs"] = stage["secs"]
    return failures + apply_gates("scaling", metrics, SCALING_GATES)


def check_repro(baseline_path, smoke_path, tolerance, max_rss_ratio):
    base = load(baseline_path)
    smoke = load(smoke_path)
    for report, path in ((base, baseline_path), (smoke, smoke_path)):
        for key in ("jobs", "total_secs"):
            if key not in report:
                sys.exit(f"check_bench: {path} has no '{key}' field")

    failures = []
    ratio = smoke["jobs"] / base["jobs"]
    expected = max(base["total_secs"] * ratio, MIN_EXPECTED_SECS)
    print(f"repro: baseline {base['total_secs']:.2f} s for {base['jobs']} jobs")
    print(f"repro: smoke    {smoke['total_secs']:.2f} s for {smoke['jobs']} "
          f"jobs (ratio {ratio:.4f})")
    for name, stage in smoke.get("stages", {}).items():
        print(f"  stage {name:<16} {stage['secs']:8.3f} s")

    metrics = {
        "total_secs": smoke["total_secs"],
        "peak_rss_bytes": smoke.get("peak_rss_bytes", 0),
    }
    gates = [Gate("ceiling", "total_secs", expected * tolerance)]
    # Telemetry jobs/sec is scale-invariant, so the smoke run must hold
    # the baseline's rate within tolerance. This is the regression gate
    # for the streaming engine — a fallback to materialize-everything
    # batch costs ~10x and trips it even through CI noise.
    base_tel = base.get("stages", {}).get("telemetry")
    smoke_tel = smoke.get("stages", {}).get("telemetry")
    if base_tel and smoke_tel:
        metrics["telemetry.jobs_per_sec"] = smoke_tel["jobs_per_sec"]
        gates.append(Gate("floor", "telemetry.jobs_per_sec",
                          base_tel["jobs_per_sec"] / tolerance))
    # Peak-RSS ceiling: streaming keeps memory at O(aggregate state), so
    # a reduced-scale run above the full-scale high-water mark means
    # series are being materialized again. 0 means "not measured".
    if base.get("peak_rss_bytes", 0) > 0 and metrics["peak_rss_bytes"] > 0:
        gates.append(Gate("ceiling", "peak_rss_bytes",
                          base["peak_rss_bytes"] * max_rss_ratio))
    failures += apply_gates("repro", metrics, gates)
    return failures


def fixture(name):
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", name)


def selftest():
    """Every suite judged against its committed pass/fail fixtures."""
    cases = [
        ("serve pass", lambda: check_serve(fixture("serve_pass.json")), True),
        ("serve fail", lambda: check_serve(fixture("serve_fail.json")), False),
        ("serve-compare pass",
         lambda: check_serve_compare([fixture("serve_pass.json"),
                                      fixture("serve_pass.json")]), True),
        ("serve-compare fail",
         lambda: check_serve_compare([fixture("serve_pass.json"),
                                      fixture("serve_fail.json")]), False),
        ("serve scenario pass",
         lambda: check_serve(fixture("serve_scenario_pass.json")), True),
        ("serve scenario fail",
         lambda: check_serve(fixture("serve_scenario_fail.json")), False),
        ("serve-compare scenario mismatch",
         lambda: check_serve_compare([fixture("serve_pass.json"),
                                      fixture("serve_scenario_pass.json")]),
         False),
        ("streaming pass",
         lambda: apply_gates("streaming",
                             parse_medians(fixture("streaming_pass.txt")),
                             STREAMING_GATES), True),
        ("streaming fail",
         lambda: apply_gates("streaming",
                             parse_medians(fixture("streaming_fail.txt")),
                             STREAMING_GATES), False),
        ("serve-bench pass",
         lambda: apply_gates("serve-bench",
                             parse_medians(fixture("serve_bench_pass.txt")),
                             SERVE_BENCH_GATES), True),
        ("serve-bench fail",
         lambda: apply_gates("serve-bench",
                             parse_medians(fixture("serve_bench_fail.txt")),
                             SERVE_BENCH_GATES), False),
        ("scaling pass",
         lambda: check_scaling(fixture("scaling_t1.json"),
                               fixture("scaling_pass.json")), True),
        ("scaling fail",
         lambda: check_scaling(fixture("scaling_t1.json"),
                               fixture("scaling_fail.json")), False),
        ("placement pass",
         lambda: apply_gates("placement",
                             parse_medians(fixture("placement_pass.txt")),
                             placement_gates(5.0)), True),
        ("placement fail",
         lambda: apply_gates("placement",
                             parse_medians(fixture("placement_fail.txt")),
                             placement_gates(5.0)), False),
        ("repro pass",
         lambda: check_repro(fixture("repro_baseline.json"),
                             fixture("repro_smoke_pass.json"), 2.0, 1.5),
         True),
        ("repro fail",
         lambda: check_repro(fixture("repro_baseline.json"),
                             fixture("repro_smoke_fail.json"), 2.0, 1.5),
         False),
        ("classifier pass",
         lambda: check_classifier(fixture("classifier_pass.json")), True),
        ("classifier fail",
         lambda: check_classifier(fixture("classifier_fail.json")), False),
        ("reliability pass",
         lambda: check_reliability(fixture("reliability_pass.json")), True),
        ("reliability fail",
         lambda: check_reliability(fixture("reliability_fail.json")), False),
        ("reliability-scaling pass",
         lambda: check_reliability_scaling(
             fixture("reliability_t1.json"),
             fixture("reliability_scaling_pass.json")), True),
        ("reliability-scaling fail",
         lambda: check_reliability_scaling(
             fixture("reliability_t1.json"),
             fixture("reliability_scaling_fail.json")), False),
    ]
    wrong = []
    for name, run, expect_pass in cases:
        print(f"--- selftest: {name}")
        passed = not run()
        verdict = "ok" if passed == expect_pass else "WRONG VERDICT"
        print(f"--- selftest: {name}: "
              f"{'passed' if passed else 'failed'} as "
              f"{'expected' if passed == expect_pass else 'NOT expected'} "
              f"[{verdict}]")
        if passed != expect_pass:
            wrong.append(name)
    if wrong:
        sys.exit(f"check_bench: SELFTEST FAIL — gates misjudged: {wrong}")
    print(f"check_bench: selftest OK ({len(cases)} fixture cases)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?", help="committed BENCH_repro.json")
    ap.add_argument("smoke", nargs="?", help="fresh --bench-json output")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="fail when smoke exceeds the scaled baseline by this factor",
    )
    ap.add_argument(
        "--max-rss-ratio",
        type=float,
        default=1.5,
        help="fail when the smoke run's peak RSS exceeds this multiple of "
        "the full-scale baseline's (only when both were measured)",
    )
    ap.add_argument(
        "--placement",
        metavar="LOG",
        help="console log of `cargo bench --bench placement` to gate",
    )
    ap.add_argument(
        "--placement-overhead",
        type=float,
        default=5.0,
        help="fail when the coshare placement pass exceeds the baseline "
        "pass by this factor (typical is ~1.5x)",
    )
    ap.add_argument(
        "--streaming",
        metavar="LOG",
        help="console log of `cargo bench --bench streaming` to gate",
    )
    ap.add_argument(
        "--serve-bench",
        metavar="LOG",
        help="console log of `cargo bench --bench serve` to gate (cold "
        "point and figure query ceilings)",
    )
    ap.add_argument(
        "--scaling",
        nargs=2,
        metavar=("ONE", "MANY"),
        help="1-thread and multi-thread --bench-json reports of the same "
        "run; fails when more threads make the telemetry stage slower",
    )
    ap.add_argument(
        "--serve",
        metavar="JSON",
        help="serve_load report to gate (latency ceilings, throughput and "
        "hit-rate floors, storm speedup)",
    )
    ap.add_argument(
        "--serve-compare",
        metavar="JSON",
        nargs="+",
        help="two or more serve_load reports whose response digests must "
        "be identical (thread-budget determinism)",
    )
    ap.add_argument(
        "--classifier",
        metavar="JSON",
        help="repro_figures --classifier-json report to gate (accuracy "
        "floor, predicted-vs-oracle goodput band, split-size floors)",
    )
    ap.add_argument(
        "--reliability",
        metavar="JSON",
        help="repro_figures --reliability-json report to gate (Young/Daly "
        "sweep band, frontier monotonicity, growth throughput floor)",
    )
    ap.add_argument(
        "--reliability-scaling",
        nargs=2,
        metavar=("ONE", "MANY"),
        help="1-thread and multi-thread --reliability-json reports of the "
        "same study; fails when more threads make the study slower",
    )
    ap.add_argument(
        "--selftest",
        action="store_true",
        help="judge every suite against its committed scripts/fixtures/ "
        "pass/fail pair and exit non-zero on any wrong verdict",
    )
    args = ap.parse_args()

    if args.selftest:
        selftest()
        return
    if args.baseline and not args.smoke:
        ap.error("BASELINE given without SMOKE")

    failures = []
    if args.placement:
        failures += apply_gates("placement", parse_medians(args.placement),
                                placement_gates(args.placement_overhead))
    if args.streaming:
        failures += apply_gates("streaming", parse_medians(args.streaming),
                                STREAMING_GATES)
    if args.serve_bench:
        failures += apply_gates("serve-bench", parse_medians(args.serve_bench),
                                SERVE_BENCH_GATES)
    if args.scaling:
        failures += check_scaling(*args.scaling)
    if args.serve:
        failures += check_serve(args.serve)
    if args.serve_compare:
        failures += check_serve_compare(args.serve_compare)
    if args.classifier:
        failures += check_classifier(args.classifier)
    if args.reliability:
        failures += check_reliability(args.reliability)
    if args.reliability_scaling:
        failures += check_reliability_scaling(*args.reliability_scaling)
    if args.baseline:
        failures += check_repro(args.baseline, args.smoke, args.tolerance,
                                args.max_rss_ratio)
    if not (args.placement or args.streaming or args.serve_bench
            or args.scaling or args.serve or args.serve_compare or args.classifier or args.reliability
            or args.reliability_scaling or args.baseline):
        ap.error("nothing to do: give BASELINE SMOKE, a suite flag, "
                 "or --selftest")

    if failures:
        for f in failures:
            print(f"check_bench: FAIL — {f}", file=sys.stderr)
        sys.exit(f"check_bench: {len(failures)} gate(s) failed")
    print("check_bench: OK")


if __name__ == "__main__":
    main()

//! Regenerates every table and figure of the paper and writes the
//! paper-vs-measured report.
//!
//! ```text
//! repro_figures [--scenario NAME|FILE] [--cross-system all|LIST]
//!               [--scale F] [--seed N] [--out EXPERIMENTS.md]
//!               [--threads N] [--bench-json BENCH_repro.json]
//!               [--failure-profile off|supercloud|stress|transient]
//!               [--mtbf FACTOR]
//!               [--trace FILE] [--trace-level off|spans|events]
//!               [--policy off|powercap:WATTS|coshare|coshare-predicted|tiered]
//!               [--data-quality off|supercloud|lossy|hostile]
//!               [--classify] [--classifier-json FILE]
//!               [--reliability] [--growth FACTORS]
//!               [--reliability-json FILE]
//! ```
//!
//! Every run is one [`Scenario`]: `--scenario` names a committed preset
//! or a TOML file, and a bare run is `--scenario supercloud`, the full
//! 125-day / 74,820-job Supercloud reproduction. Each world flag edits
//! the one scenario field it names, wherever it sits on the command
//! line: `--scale`, `--seed`, `--failure-profile`, `--mtbf`, `--policy`
//! and `--data-quality`. The stage switches turn on the scenario's
//! `[classifier]` and `[reliability]` stages. The pipeline then reads
//! the workload, cluster, failure model, policy arm, data-quality
//! profile and stage settings from the scenario alone.
//!
//! The run prints the figure series to stdout on all available cores;
//! pass `--out` to also write the Markdown comparison, `--threads 1`
//! for the sequential reference run, and `--bench-json` for a
//! machine-readable per-stage timing breakdown. A failure profile
//! enables the fault-injection subsystem: a taxonomy schedules GPU
//! Xid, node-hardware, and transient-infrastructure faults, the
//! scheduler requeues victims with capped backoff, and the goodput
//! ledger attributes every lost GPU-hour to its cause. `--mtbf` on a
//! failure-free scenario selects the `supercloud` taxonomy unless
//! `--failure-profile` names one. `--cross-system` additionally runs a
//! list of scenarios (or `all` four presets) through the identical
//! pipeline at the run's scale and seed and appends the side-by-side
//! comparison.
//!
//! `--classify` trains the `sc-learn` workload-archetype classifier on
//! the generated trace — streamed feature extraction, seeded decision
//! forest, deterministic train/test split — and prints the
//! confusion-matrix report (`classifier_confusion.svg` with
//! `--svg-dir`). `--policy coshare-predicted` closes the loop: the A/B
//! harness routes co-sharing on *predicted* labels and runs a third
//! oracle-label arm, so the report shows what classifier error costs
//! in goodput and queue wait. `--classifier-json` writes the gate
//! metrics `scripts/check_bench.py --classifier` consumes.
//!
//! `--reliability` runs the reliability-at-scale study over the same
//! trace: a per-size-class ETTF/ETTR/failure-rate table under the
//! job-footprint-aware hazard model, a goodput frontier across MTBF
//! settings, and a checkpoint-interval sweep around the per-class
//! Young/Daly optimum with the simulated argmax overlaid on the
//! analytic prediction. `--growth 2,8,32` adds the cluster-growth
//! replay (same workload, scaled fleet); `--reliability-json` writes
//! the gate metrics `scripts/check_bench.py --reliability` consumes
//! and the study's wall time, which `--reliability-scaling` compares
//! across thread budgets.
//!
//! `--trace FILE` streams the simulator's deterministic sim-time trace
//! (submit/start/finish/fault/kill/requeue, attempt and node-down
//! spans) as JSONL into FILE, plus a `FILE.chrome.json` sidecar of
//! wall-clock pipeline stage spans loadable in `chrome://tracing` or
//! Perfetto. `--trace-level` picks the detail (default `events` when
//! `--trace` is given).

use sc_cluster::{FailureModel, SimConfig, Simulation};
use sc_core::{AnalysisReport, ClassifierFig, DataQualityFig, DatasetReport};
use sc_learn::ArchetypePredictor;
use sc_obs::{chrome_trace_json, JsonlSink, Obs, StageLog, TraceLevel};
use sc_opportunity::OpportunityReport;
use sc_policy::{ExperimentResult, PolicyExperiment, PolicySpec};
use sc_scenario::{CrossSystemFig, Scenario};
use sc_telemetry::DataQualityProfile;
use sc_workload::Trace;

struct Args {
    /// The world to run: `--scenario` (the `supercloud` preset when
    /// absent) with every world flag and stage switch applied.
    scenario: Scenario,
    cross_system: Vec<Scenario>,
    out: Option<String>,
    svg_dir: Option<String>,
    threads: Option<usize>,
    bench_json: Option<String>,
    trace: Option<String>,
    trace_level: TraceLevel,
    classifier_json: Option<String>,
    reliability_json: Option<String>,
}

const USAGE: &str = "usage: repro_figures [--scenario NAME|FILE] [--cross-system all|LIST]
                     [--scale F] [--seed N] [--out FILE] [--svg-dir DIR]
                     [--threads N] [--bench-json FILE]
                     [--failure-profile off|supercloud|stress|transient]
                     [--mtbf FACTOR]
                     [--trace FILE] [--trace-level off|spans|events]
                     [--policy off|powercap:WATTS|coshare|coshare-predicted|tiered]
                     [--data-quality off|supercloud|lossy|hostile]
                     [--classify] [--classifier-json FILE]
                     [--reliability] [--growth FACTORS]
                     [--reliability-json FILE]

  --scenario S         the world to run: a scenario preset or TOML file
                       (presets: supercloud|philly|nersc|in2p3; default
                       supercloud). It supplies cluster, workload,
                       arrivals, failures, data quality, policy, seed,
                       and scale; each flag below edits only the field
                       it names, wherever it appears
  --cross-system L     after the main run, replay the comma-separated
                       scenario list L (`all` = the four presets) at the
                       run's scale and seed and print the side-by-side
                       comparison (plus cross_system.svg with --svg-dir
                       and a methodology section in --out)
  --scale F            scale the scenario's workload by F (supercloud:
                       the 125-day / 74,820-job trace at 1.0)
  --seed N             master RNG seed (supercloud: 42)
  --out FILE           also write the Markdown paper-vs-measured report
  --svg-dir DIR        write the SVG figure set into DIR
  --threads N          cap the worker pool (default: all cores)
  --bench-json FILE    write per-stage timings as JSON
  --failure-profile P  inject faults from taxonomy profile P, keeping the
                       scenario's MTBF factor (supercloud: off)
  --mtbf FACTOR        scale every class MTBF by FACTOR; on a failure-free
                       scenario it also selects the supercloud taxonomy
                       unless --failure-profile is given
  --trace FILE         write the deterministic sim-time JSONL trace to FILE
                       and a FILE.chrome.json Perfetto sidecar of pipeline
                       stage spans
  --trace-level L      trace detail: off, spans, or events (default events
                       when --trace is given)
  --policy P           run the closed-loop policy A/B harness: replay the
                       same trace with no policy and with P, and report
                       the deltas (see the Policy engine section of the
                       README); off (supercloud's arm) skips the harness
  --data-quality P     corrupt the recorded dataset with collection-fault
                       profile P, run the hardened ingest repair, and report
                       recovered-vs-clean headline deltas plus the repair
                       ledger; off (supercloud's profile) skips the stage
  --classify           turn on the scenario's [classifier] stage: train the
                       workload-archetype classifier on the generated trace
                       and print the confusion-matrix report
                       (classifier_confusion.svg with --svg-dir)
  --classifier-json F  write classifier gate metrics (accuracy, split
                       sizes, predicted-vs-oracle goodput delta when
                       --policy coshare-predicted ran) as JSON to F;
                       implies --classify
  --reliability        turn on the scenario's [reliability] stage: per-size-
                       class ETTF/ETTR table, goodput frontier across MTBF
                       settings, and the Young/Daly checkpoint-interval
                       sweep (simulated vs analytic); uses the scenario's
                       failure model, or the supercloud taxonomy at 0.05x
                       MTBF when the scenario injects none
  --growth FACTORS     comma-separated fleet scale factors (e.g. 2,8,32)
                       for the cluster-growth replay: same workload on a
                       scaled cluster, reporting queue wait, goodput, and
                       event-loop throughput per scale; implies
                       --reliability
  --reliability-json F write reliability gate metrics (sweep worst ratio,
                       frontier monotonicity, growth throughput floor,
                       study wall time) as JSON to F; implies
                       --reliability";

/// Prints an error plus the usage text and exits with status 2, the
/// conventional bad-usage code.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro_figures: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parses a positive finite factor, the range each factor key of a
/// scenario accepts.
fn factor(flag: &str, s: &str) -> f64 {
    match s.trim().parse::<f64>() {
        Ok(f) if f.is_finite() && f > 0.0 => f,
        _ => usage_error(&format!("{flag} takes positive finite factors, got {s}")),
    }
}

fn parse_args() -> Args {
    let mut scenario = None;
    let mut cross_system = Vec::new();
    let (mut out, mut svg_dir, mut threads, mut bench_json) = (None, None, None, None);
    let (mut trace, mut trace_level) = (None, None);
    let (mut classifier_json, mut reliability_json) = (None, None);
    // World flags and stage switches, applied to the scenario once the
    // command line is read, so their position relative to --scenario
    // does not matter.
    let (mut scale, mut seed, mut failure_profile, mut mtbf) = (None, None, None, None);
    let (mut policy, mut data_quality, mut growth) = (None, None, None);
    let (mut classify, mut reliability) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| usage_error(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--scenario" => {
                let spec = value("--scenario");
                scenario = Some(
                    Scenario::load(&spec)
                        .unwrap_or_else(|e| usage_error(&format!("--scenario {spec}: {e}"))),
                );
            }
            "--cross-system" => {
                let list = value("--cross-system");
                let names: Vec<String> = if list == "all" {
                    Scenario::preset_names().map(String::from).collect()
                } else {
                    list.split(',').map(String::from).collect()
                };
                cross_system = names
                    .iter()
                    .map(|n| {
                        Scenario::load(n)
                            .unwrap_or_else(|e| usage_error(&format!("--cross-system {n}: {e}")))
                    })
                    .collect();
            }
            "--scale" => scale = Some(factor("--scale", &value("--scale"))),
            "--seed" => {
                seed = Some(
                    value("--seed")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--seed needs an integer")),
                );
            }
            "--out" => out = Some(value("--out")),
            "--svg-dir" => svg_dir = Some(value("--svg-dir")),
            "--threads" => {
                threads = Some(
                    value("--threads")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--threads needs an integer")),
                );
            }
            "--bench-json" => bench_json = Some(value("--bench-json")),
            "--failure-profile" => {
                let name = value("--failure-profile");
                if FailureModel::profile(&name, 0).is_none() {
                    usage_error(&format!(
                        "unknown --failure-profile {name} (expected {})",
                        FailureModel::PROFILE_NAMES
                    ));
                }
                failure_profile = Some(name);
            }
            "--mtbf" => mtbf = Some(factor("--mtbf", &value("--mtbf"))),
            "--trace" => trace = Some(value("--trace")),
            "--trace-level" => {
                let name = value("--trace-level");
                trace_level = Some(TraceLevel::parse(&name).unwrap_or_else(|| {
                    usage_error(&format!("bad trace level {name} (expected {})", TraceLevel::NAMES))
                }));
            }
            "--policy" => {
                let arm = value("--policy");
                if let Err(e) = PolicySpec::parse(&arm) {
                    usage_error(&e);
                }
                policy = Some(arm);
            }
            "--data-quality" => {
                let name = value("--data-quality");
                if DataQualityProfile::parse(&name).is_none() {
                    usage_error(&format!(
                        "unknown --data-quality profile {name} (expected {})",
                        DataQualityProfile::NAMES
                    ));
                }
                data_quality = Some(name);
            }
            "--classify" => classify = true,
            "--classifier-json" => classifier_json = Some(value("--classifier-json")),
            "--reliability" => reliability = true,
            "--growth" => {
                let list = value("--growth");
                growth = Some(list.split(',').map(|f| factor("--growth", f)).collect());
            }
            "--reliability-json" => reliability_json = Some(value("--reliability-json")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    let trace_level =
        trace_level.unwrap_or(if trace.is_some() { TraceLevel::Events } else { TraceLevel::Off });
    if trace_level > TraceLevel::Off && trace.is_none() {
        usage_error("--trace-level needs --trace FILE to write to");
    }

    let mut sc = scenario.unwrap_or_default();
    if let Some(v) = scale {
        sc.scale = v;
    }
    if let Some(v) = seed {
        sc.seed = v;
    }
    if let Some(v) = &failure_profile {
        sc.failures.profile = v.clone();
    }
    if let Some(f) = mtbf {
        // On a failure-free world `--mtbf` means "the default taxonomy,
        // rescaled"; `--failure-profile off --mtbf F` stays off.
        if failure_profile.is_none() && sc.failure_model(sc.seed).is_none() {
            sc.failures.profile = "supercloud".to_string();
        }
        sc.failures.mtbf_factor = Some(f);
    }
    if let Some(v) = policy {
        sc.policy = v;
    }
    if let Some(v) = data_quality {
        sc.data_quality = v;
    }
    sc.classifier.enabled |= classify || classifier_json.is_some();
    sc.reliability.enabled |= reliability || growth.is_some() || reliability_json.is_some();
    if growth.is_some() {
        sc.reliability.growth_factors = growth;
    }
    Args {
        scenario: sc,
        cross_system,
        out,
        svg_dir,
        threads,
        bench_json,
        trace,
        trace_level,
        classifier_json,
        reliability_json,
    }
}

/// One timed pipeline stage for the `--bench-json` report.
struct Stage {
    name: &'static str,
    secs: f64,
}

/// Peak resident set size of this process in bytes, from the kernel's
/// high-water mark (`VmHWM` in `/proc/self/status`). Returns 0 where
/// procfs is unavailable (non-Linux), which downstream gates treat as
/// "not measured".
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Renders the benchmark report by hand: four stages and a handful of
/// scalars do not warrant a serialization dependency in a binary.
fn bench_json(threads: usize, scale: f64, seed: u64, jobs: usize, stages: &[Stage]) -> String {
    let total: f64 = stages.iter().map(|s| s.secs).sum();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str("  \"stages\": {\n");
    for (i, s) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {{ \"secs\": {:.6}, \"jobs_per_sec\": {:.1} }}{comma}\n",
            s.name,
            s.secs,
            jobs as f64 / s.secs.max(1e-9)
        ));
    }
    out.push_str("  },\n");
    out.push_str(&format!("  \"peak_rss_bytes\": {},\n", peak_rss_bytes()));
    out.push_str(&format!("  \"total_secs\": {total:.6},\n"));
    out.push_str(&format!("  \"total_jobs_per_sec\": {:.1}\n", jobs as f64 / total.max(1e-9)));
    out.push_str("}\n");
    out
}

/// Renders the classifier gate metrics by hand, like [`bench_json`]:
/// five scalars do not warrant a serialization dependency.
/// `goodput_delta_pp` is `null` unless the `coshare-predicted` policy
/// harness ran its oracle arm alongside.
fn classifier_json(fig: &ClassifierFig, policy: Option<&ExperimentResult>) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"accuracy\": {:.6},\n", fig.accuracy));
    out.push_str(&format!("  \"centroid_accuracy\": {:.6},\n", fig.centroid_accuracy));
    out.push_str(&format!("  \"train_jobs\": {},\n", fig.train_count));
    out.push_str(&format!("  \"test_jobs\": {},\n", fig.test_count));
    match policy.and_then(|r| r.predicted_vs_oracle_goodput_pp()) {
        Some(pp) => out.push_str(&format!("  \"goodput_delta_pp\": {pp:.6}\n")),
        None => out.push_str("  \"goodput_delta_pp\": null\n"),
    }
    out.push_str("}\n");
    out
}

/// Renders the reliability gate metrics by hand, like [`bench_json`]:
/// the three scalars `scripts/check_bench.py --reliability` gates, the
/// study's wall time `--reliability-scaling` compares across thread
/// budgets, and the per-class sweep verdicts and growth timings behind
/// them.
/// Non-finite values (a class the model cannot fail, an empty growth
/// list) render as `null`, which the gate script treats as "not
/// measured" for detail rows and a hard failure for gated scalars.
fn reliability_json(report: &sc_core::ReliabilityReport, study_secs: f64) -> String {
    let fin = |v: f64, prec: usize| {
        if v.is_finite() {
            format!("{v:.prec$}")
        } else {
            "null".to_string()
        }
    };
    let mut out = String::from("{\n");
    match report.sweep.worst_ratio() {
        Some(r) => out.push_str(&format!("  \"sweep_worst_ratio\": {},\n", fin(r, 6))),
        None => out.push_str("  \"sweep_worst_ratio\": null,\n"),
    }
    out.push_str(&format!(
        "  \"frontier_monotone_violation\": {},\n",
        fin(report.frontier.monotone_violation(), 6)
    ));
    let min_jps =
        report.growth_timings.iter().map(|t| t.jobs_per_sec()).fold(f64::INFINITY, f64::min);
    out.push_str(&format!("  \"growth_min_jobs_per_sec\": {},\n", fin(min_jps, 1)));
    out.push_str(&format!("  \"study_secs\": {study_secs:.6},\n"));
    out.push_str("  \"sweep_classes\": [\n");
    for (i, c) in report.sweep.classes.iter().enumerate() {
        let comma = if i + 1 < report.sweep.classes.len() { "," } else { "" };
        let sim = c.simulated_secs.map_or("null".to_string(), |t| fin(t, 1));
        let ratio = c.ratio().map_or("null".to_string(), |r| fin(r, 6));
        out.push_str(&format!(
            "    {{ \"label\": \"{}\", \"gpus\": {}, \"analytic_secs\": {}, \
             \"simulated_secs\": {sim}, \"ratio\": {ratio} }}{comma}\n",
            c.label,
            c.gpus,
            fin(c.analytic_secs, 1)
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"growth\": [\n");
    for (i, t) in report.growth_timings.iter().enumerate() {
        let comma = if i + 1 < report.growth_timings.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"factor\": {}, \"jobs\": {}, \"event_loop_secs\": {:.6}, \
             \"jobs_per_sec\": {:.1} }}{comma}\n",
            t.factor,
            t.jobs,
            t.event_loop_secs,
            t.jobs_per_sec()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The reliability figure family as SVGs: the goodput frontier and the
/// checkpoint sweep as log-x line charts, the growth study as a bar
/// chart of median queue wait per scale. Series a degenerate run left
/// empty (a class with no exposure) are dropped; a chart with no data
/// at all is skipped rather than rendered blank.
fn reliability_svgs(report: &sc_core::ReliabilityReport) -> Vec<(&'static str, String)> {
    use sc_core::svg::{bar_chart, line_chart, Scale, Series};
    let mut out = Vec::new();

    let frontier: Vec<Series> = report
        .frontier
        .rows
        .iter()
        .map(|r| {
            let pts: Vec<(f64, f64)> = report
                .frontier
                .class_gpus
                .iter()
                .zip(&r.goodput_by_class)
                .filter_map(|(&g, gp)| gp.map(|v| (g as f64, v)))
                .collect();
            Series::new(format!("mtbf x{}", r.mtbf_factor), pts)
        })
        .filter(|s| !s.points.is_empty())
        .collect();
    if !frontier.is_empty() {
        out.push((
            "goodput_frontier.svg",
            line_chart(
                "Goodput frontier",
                "job size (GPUs)",
                "goodput fraction",
                Scale::Log10,
                &frontier,
            ),
        ));
    }

    let mut sweep = vec![Series::new(
        "overall",
        report.sweep.rows.iter().map(|r| (r.interval_secs, r.overall_goodput)).collect(),
    )];
    for (c, verdict) in report.sweep.classes.iter().enumerate() {
        let pts: Vec<(f64, f64)> = report
            .sweep
            .rows
            .iter()
            .filter_map(|r| r.goodput_by_class[c].map(|v| (r.interval_secs, v)))
            .collect();
        if !pts.is_empty() {
            sweep.push(Series::new(verdict.label.clone(), pts));
        }
    }
    out.push((
        "checkpoint_sweep.svg",
        line_chart(
            "Checkpoint-interval sweep (Young/Daly)",
            "checkpoint interval (s)",
            "goodput fraction",
            Scale::Log10,
            &sweep,
        ),
    ));

    if let Some(growth) = &report.growth {
        let bars: Vec<(String, f64)> =
            growth.rows.iter().map(|r| (format!("x{}", r.factor), r.median_wait_secs)).collect();
        out.push((
            "reliability_growth.svg",
            bar_chart("Cluster growth: median queue wait", "seconds", &bars),
        ));
    }
    out
}

/// Residual deviations we know about and accept; everything else in the
/// tables above tracks the paper within roughly ±30%.
const KNOWN_GAPS: &str = "\n## Known residual gaps\n\n\
- **Queue-wait CDF depth (Fig. 3b).** The orderings hold (GPU jobs clear in \
seconds, CPU jobs in minutes; 70% of CPU jobs wait over a minute), but our \
simulated cluster runs at ~20% GPU occupancy, so fewer GPU jobs ever wait at \
all than on the real system (≈90% under 2% of service time vs the paper's \
≈50%). Reproducing the deeper waits would require knowledge of the real \
system's background load that the paper does not report.\n\
- **Run-time p75 (Fig. 3a).** The paper's quantile triple (4/30/300 min) is \
wider than any single heavy-tailed family; our mixture honours the median and \
the GPU-hour shares of Fig. 15b, leaving p75 at ≈180-230 min. The class-level \
medians (36 min mature / 62 min exploratory) are matched instead.\n\
- **Per-user average run time (Fig. 10).** Median-of-averages lands at \
≈170-190 min vs the paper's 392 min; the spread (p25:p75 ≈ 1:3) and the \
heavy-tail shape are reproduced. Lifting it further would break the job-level \
run-time medians we prioritize.\n\
- **Fig. 12 CoV correlations.** The paper reports low positive bars; we land \
slightly negative to flat (≈-0.2…0.1). The qualitative claim — expert users \
are *not* more predictable — holds; the exact bar heights depend on \
unpublished within-user structure.\n\
- **Top-share sampling variance (Fig. 11).** The fitted Pareto shape \
(α ≈ 1.13) has infinite variance, so the *empirical* top-20% GPU-hour share \
of a 20k-user draw ranges 0.75-0.96 across seeds even though the analytic \
Lorenz shares match the paper exactly. Sampled-share tests therefore assert \
wide heavy-tail bands; the exact calibration is checked analytically.\n\
- **Wait growth under capacity loss.** With the full cluster at ~20% \
occupancy the mean queue wait is floored at the 3 s scheduler latency, so \
the wait-growth factor when capacity shrinks is bounded by queueing pressure \
alone: we measure ≈7× and assert a robust 5× directional bar rather than the \
10× one might expect from utilization ratios.\n\
- **Deadline surge is a GPU-job metric.** CPU campaign bursts can land \
hundreds of jobs on a single off-season day and swamp the all-jobs daily \
mean, so the pre-deadline surge (Sec. II) is computed over GPU submissions \
only, where the deadline ramp actually shows (≈1.2× vs the 1.1× bar).\n";

/// Prints a runtime (non-usage) error and exits with status 1.
fn fail(msg: &str) -> ! {
    eprintln!("repro_figures: {msg}");
    std::process::exit(1);
}

/// The failure-taxonomy section of the generated report: what the
/// injection subsystem models and how to reproduce it.
const FAILURE_TAXONOMY: &str = "\n## Failure taxonomy and goodput accounting\n\n\
The paper reports hardware behind fewer than 0.5% of job deaths over its \
window (Sec. II) and stops there. The simulator extends the analysis with a \
three-class failure-injection taxonomy and a goodput ledger that accounts \
for every allocated GPU-second:\n\n\
| class | interarrival | default MTBF per unit | repair | blast radius |\n\
|---|---|---|---|---|\n\
| gpu-xid | exponential | 1.5e7 s per GPU | none | one resident GPU job |\n\
| node-hardware | Weibull (k = 0.9) | 8.0e6 s per node | 4 h | whole node |\n\
| infra-transient | exponential | 5.0e6 s per node | 5 min | whole node |\n\n\
Failed attempts are requeued with exponential backoff (60 s base, 2× factor) \
up to min(3, per-job restart budget) retries; interactive jobs never retry. \
Checkpointable jobs (85% of mature/exploratory) resume from their last \
Young-interval checkpoint instead of restarting from scratch. The ledger \
splits allocated GPU-seconds into useful + lost + idle — the balance is \
asserted in tests — and attributes every lost GPU-second to the class that \
destroyed it.\n\n\
Reproduce with:\n\n\
```text\n\
repro_figures --failure-profile supercloud   # default taxonomy\n\
repro_figures --failure-profile stress       # 10x failure rates\n\
repro_figures --failure-profile transient    # transient infra only\n\
repro_figures --mtbf 0.5                     # halve every class MTBF\n\
```\n\n\
The failure schedule, every requeue decision, and the goodput report are \
byte-identical at any thread budget (`tests/determinism.rs`); the recovery \
invariants — double-failure absorption, requeue-after-repair, retry-cap \
exhaustion, no GPU-second leakage — are covered by \
`tests/scheduler_invariants.rs`.\n";

/// The observability section of the generated report: the
/// ClusterTimeline figure and the deterministic trace layer.
const TRACING: &str = "\n## ClusterTimeline and deterministic tracing\n\n\
Every run collects a cluster-state time series — queued and running \
jobs, GPUs in use, nodes down, requeue backlog — sampled on event-loop \
transitions at 512 points across the horizon, rendered as the \
ClusterTimeline figure (`cluster_timeline.svg` with `--svg-dir`). The \
timeline also feeds a log2-bucketed queue-depth histogram that sees \
every scheduler transition, not just the sampled instants.\n\n\
`--trace FILE` additionally streams a JSONL event trace keyed to \
*simulated* time: submit/finish/fault/kill/requeue/checkpoint_restore \
events plus attempt and node_down spans. The stream is emitted from the \
single-threaded event loop, so it is byte-identical at any \
`SC_PAR_THREADS` budget — a property pinned by a committed golden trace \
(`tests/golden/`) and the determinism suite. `--trace-level \
{off|spans|events}` controls verbosity; a \
`FILE.chrome.json` sidecar carries the wall-clock stage spans for \
chrome://tracing or https://ui.perfetto.dev. With tracing off the \
instrumentation compiles down to a cached enum compare per site.\n";

/// The streaming-telemetry section of the generated report: the
/// before/after stage breakdown and the memory-bound claim. The
/// full-scale and 1M-job rows are measured constants (regenerated with
/// BENCH_repro.json); the per-run table below them is live.
const STREAMING_BENCH: &str = "\n## Streaming telemetry engine\n\n\
The original telemetry stage materialized every per-job sample series \
before any aggregation ran, so the full-scale reproduction spent 47.2 s \
of its 48.4 s wall-clock synthesizing series at 1,584 jobs/sec. The \
streaming engine synthesizes each job's series tick-by-tick straight \
into one-pass aggregators (segmentation builder, CoV folds, mergeable \
quantile sketch / Welford / histogram summaries) over a thread-local \
scratch spill, so wall-clock and peak memory scale with aggregate \
state, not sample count. Full-scale (74,820 jobs, seed 42) before vs \
after:\n\n\
| engine | threads | telemetry | jobs/sec | total | peak RSS |\n\
|---|---|---|---|---|---|\n\
| batch (committed baseline) | 1 | 47.23 s | 1,584 | 48.42 s | not recorded |\n\
| streaming | 1 | 4.52 s | 16,553 | 5.67 s | 81.3 MiB |\n\
| streaming | 4 | 5.08 s | 14,740 | 6.66 s | 122.6 MiB |\n\
| streaming | 8 | 5.32 s | 14,062 | 6.45 s | 198.1 MiB |\n\n\
(The rows above were measured on a one-core container, so extra \
workers only add scheduling overhead and per-worker scratch; the \
thread matrix exists to prove the determinism contract — stdout is \
byte-identical across all three rows — not scaling.)\n\n\
The O(aggregate state) memory claim is demonstrated by a 1M-job run \
(`--scale 13.366`, 1,000,044 jobs — 13.4x the sample volume): peak RSS \
grows only with the recorded dataset (one epilog record per job, plus \
O(threads) series scratch), not with the synthesized sample count. \
Measured: 776 MiB peak RSS for 57.4 s of telemetry (17,425 jobs/sec) \
— 9.5x the RSS of the 74,820-job run for 13.4x the jobs, where the \
batch engine's materialized series alone would have needed tens of GiB. \
`peak_rss_bytes` is recorded in every `--bench-json` report and \
regression-gated by `scripts/check_bench.py`.\n";

/// The query-service section of the generated report: the serve-once
/// architecture, the load-mix definitions, and the committed smoke
/// baseline (regenerated with BENCH_serve.json).
const SERVE_METHODOLOGY: &str = "\n## Query service methodology\n\n\
The serving layer (`sc-serve`) reframes the reproduction as a \
long-running system: `Service::build` runs the seeded simulation once \
(trace generation, event loop, streaming telemetry, ingest) and \
freezes the result as immutable shared state; every subsequent query \
— point statistic, rendered figure, policy A/B arm, data-quality \
round trip — is a pure function of `(scenario, seed, query)` computed \
on a work-stealing executor behind a single-flight memoization cache. \
Because responses are pure renders of frozen state, the determinism \
contract extends to serving for free: cache temperature, thread \
budget, and arrival interleaving can change *latency* but never \
*bytes*.\n\n\
**Load generation.** `serve_load` replays four seeded mixes and \
reports each separately, since they stress different paths:\n\n\
| mix | composition | path exercised |\n\
|---|---|---|\n\
| `point_flood` | N random point queries over 12 stats | small-answer \
fan-in; first touch per stat misses, rest hit |\n\
| `cold_ab` | the 6 what-if arms (3 policy A/Bs + 3 data-quality \
profiles), all cold | the expensive tail: each arm re-runs the event \
loop or ingest over the frozen trace |\n\
| `cache_storm` | 2N random queries after the full 36-query surface \
is warmed | pure hit path; measures cache + executor overhead floor |\n\
| `steady` | 70% points / 25% figures / 5% what-ifs, warm | the \
steady-state production mix |\n\n\
Requests are submitted asynchronously and *joined in submission \
order*, and every response body is folded into an FNV-1a 64 digest in \
that order — so the digest is a function of the query stream alone, \
not of completion order, worker count, or which requests coalesced. \
The bench-smoke CI job runs the generator at `SC_PAR_THREADS` 1, 4, \
and 8 and requires all three digests to be identical; \
`tests/determinism.rs` additionally pins cold (`query_uncached`) == \
warm (`query_blocking`) byte equality and that 8 concurrent identical \
cold queries produce exactly 1 miss and 7 hit-or-coalesced \
responses.\n\n\
**Committed smoke baseline** (`BENCH_serve.json`, scale 0.02, seed \
42, 200 requests/mix, 1 thread, one-core container):\n\n\
| mix | p50 | p99 | qps | hit rate |\n\
|---|---|---|---|---|\n\
| point_flood | 42 µs | 2.5 ms | 63.6k | 0.94 |\n\
| cold_ab | 30.3 ms | 126.1 ms | 47 | 0.00 |\n\
| cache_storm | 7.8 µs | 58 µs | 349.6k | 1.00 |\n\
| steady | 16 µs | 60 µs | 463.4k | 1.00 |\n\n\
The uncached cold baseline sustains 4.6k qps over the same surface, \
putting the storm at 76× cold throughput (criterion agrees on the \
per-query view: ~200 ns per hit vs ~210 µs per cold figure). \
`scripts/check_bench.py --serve` gates the report declaratively — p99 \
ceilings per mix (250 ms floods/steady, 50 ms storm, 30 s cold A/B), \
storm throughput ≥ 1k qps, storm and steady hit rates ≥ 0.95, and \
`storm_speedup` ≥ 10× — and the gate table itself is self-tested \
against committed pass/fail fixtures in the lint job. The weekly \
workflow runs the same gates over a full-scale soak (125-day world, \
2,000 requests/mix) and ships the per-response Chrome trace as an \
artifact; the floors are scale-independent because a cache hit costs \
the same regardless of how expensive the miss was.\n";

/// The data-quality section of the generated report: the collection
/// fault taxonomy and the ingest repair pipeline.
const DATA_QUALITY: &str = "\n## Data quality & ingest repair\n\n\
Real collection pipelines lose data: sample windows drop, epilogs go \
missing when collectors die, records duplicate on retry, clocks skew, \
power readings glitch. `--data-quality` injects exactly those faults \
into the recorded dataset with a seeded corruptor (off | supercloud | \
lossy | hostile), then runs the hardened ingest stage — canonical \
reordering, identity dedup, clock-skew translation, epilog \
reconstruction from telemetry sample counts, power imputation from the \
utilization-power model, gap imputation by last-phase hold — and \
re-runs the figure pipeline on the repaired dataset. The ledger is \
balanced by construction (injected == detected == repaired + \
quarantined, per class) and every repair/quarantine decision is \
emitted as an `sc-obs` event (`dq_repair`, `dq_quarantine`). The \
recovered-vs-clean headline deltas below quantify what survives; \
`tests/ingest_invariants.rs` holds the ledger balance across profiles \
and seeds and `tests/data_quality_acceptance.rs` pins the recovery \
bands under `lossy`.\n";

/// The policy-engine section of the generated report: the closed-loop
/// A/B methodology.
const POLICY_AB: &str = "\n## Closed-loop policy A/B\n\n\
The opportunity studies above score policies *offline* from the recorded \
dataset. `--policy` closes the loop: the same seeded trace is replayed \
twice through the identical simulator configuration — once with no \
policy, once with a closed-loop policy riding inside the event loop — \
so every delta below is attributable to the policy alone. Power capping \
stretches throttled runs by the DVFS slowdown model and clamps the \
synthesized telemetry; GPU co-sharing packs predicted-low-SM single-GPU \
jobs two per board with interference from the phase-overlap model; tier \
routing demotes non-mature classes to the slow tier (both arms get the \
same two-tier hardware, so only the routing differs). Every decision is \
counted in the simulation stats and emitted as an `sc-obs` event \
(`cap_throttle`, `coshare_place`, `tier_route`); the closed-loop \
outcomes are held to the offline models' predictions by \
`tests/policy_acceptance.rs`, and byte-level determinism across thread \
budgets by `tests/determinism.rs`.\n";

/// The workload-classification section of the generated report: the
/// archetype ground truth, the streamed feature extraction, and the
/// closed predicted-label loop.
const CLASSIFIER_METHODOLOGY: &str = "\n## Workload classification\n\n\
The paper characterizes what jobs *do* (utilization waves, phase \
structure, ramps — Secs. IV/VII); recognizing what a job *is* from \
that telemetry is the natural next step. Every synthesized GPU job \
carries a hidden ground-truth archetype — `cnn-periodic` (epoch \
waves), `transformer-plateau` (long saturated plateaus), `bursty-dev` \
(short irregular bursts), `idle-heavy` (open-but-idle sessions) — \
whose telemetry signature both the batch and the streaming samplers \
honor bit-identically. `sc-learn` folds each job's first hour of \
`[sm, mem, mem_size]` ticks into a 14-wide feature vector through the \
same one-pass `Util3Sink` interface the telemetry engine uses (the \
streamed fold is proptest-pinned bit-identical to batch \
recomputation), then trains a from-scratch seeded decision forest \
against a nearest-centroid baseline on a hash-split train/test \
partition. Dataset subsampling, the split, and tree bagging all hash \
off per-job `truth_seed`s, so the confusion matrix below is \
byte-identical at any `SC_PAR_THREADS` budget (a committed golden \
render pins it).\n\n\
`--policy coshare-predicted` closes the loop: the co-sharing gate \
routes on *predicted* labels, and a third oracle-label arm (same \
gating rule, ground-truth labels) isolates what classifier error \
costs — the predicted-vs-oracle goodput delta is gated in CI by \
`scripts/check_bench.py --classifier`, alongside the accuracy floor. \
Reproduce with:\n\n\
```text\n\
repro_figures --classify --svg-dir figs          # confusion matrix + SVG\n\
repro_figures --policy coshare-predicted         # three-arm A/B\n\
repro_figures --classify --classifier-json c.json # CI gate metrics\n\
```\n";

/// The reliability-at-scale section of the generated report: the
/// job-footprint hazard model, the figure family, and the Young/Daly
/// sweep methodology.
const RELIABILITY: &str = "\n## Reliability at scale\n\n\
Fleet studies of large training clusters (e.g. Meta's, arXiv \
2410.21680) report that failure burden grows with job footprint: a \
job spanning G GPUs samples G hazards in parallel, so its time to \
failure shrinks roughly as MTBF/G. The simulator models exactly that \
— every scheduled fault targets a GPU or node, so a job's per-attempt \
interrupt probability scales with the GPUs and nodes it holds — and \
`--reliability` measures the consequences end to end:\n\n\
- **Reliability vs job size.** Jobs are bucketed by allocated GPUs \
(canonical classes: <=1, 2, 3-8, >8; a scenario's `[reliability] \
size_buckets` re-draws the edges). Per class the table reports ETTF \
(exposed wall-clock per failure), ETTR (kill-to-restart gap), \
failures per 1,000 GPU-days, restart-overhead GPU-hours, and goodput \
— each derived from the same per-class ledger that is \
property-tested to balance (`useful + lost + idle == allocated`, \
`tests/reliability_invariants.rs`).\n\
- **Goodput frontier.** One event-loop run per MTBF scale factor \
(default 1x, 0.2x, 0.05x) plots goodput fraction against job size: \
how quickly large jobs fall off as the fleet degrades, and where \
checkpointing stops compensating.\n\
- **Young/Daly checkpoint sweep.** For each size class the analytic \
optimum is `sqrt(2 * write_cost * MTTI(footprint))`. The sweep runs \
the event loop over a geometric interval grid spanning every class's \
optimum (default 5 points, 4x half-span) and overlays the simulated \
per-class argmax on the analytic prediction; CI gates the worst \
simulated/analytic ratio to a coarse-grid band \
(`scripts/check_bench.py --reliability`).\n\
- **Cluster growth.** `--growth 2,8,32` replays the identical \
workload on a fleet scaled by each factor and reports queue-wait \
quantiles, goodput, makespan, and event-loop throughput per scale — \
the study runs with the detailed-series subset disabled, so memory \
stays O(aggregate state) even at 32x.\n\n\
All four figures are pure functions of (trace, config): byte-identical \
at any `SC_PAR_THREADS` budget, pinned by a committed golden report \
and the determinism suite. Wall-clock timings go only to \
`--reliability-json`. Reproduce with:\n\n\
```text\n\
repro_figures --reliability                        # default taxonomy at 0.05x MTBF\n\
repro_figures --reliability --failure-profile stress\n\
repro_figures --reliability --growth 2,8,32        # + cluster-growth replay\n\
repro_figures --reliability --reliability-json r.json  # CI gate metrics\n\
```\n";

/// The cross-system section of the generated report: the scenario DSL
/// and the comparison methodology.
const CROSS_SYSTEM: &str = "\n## Cross-system comparison methodology\n\n\
The paper contrasts Supercloud with Microsoft's Philly clusters in \
passing (single-GPU shares, queue waits, Sec. V). The scenario DSL \
(`sc-scenario`) generalizes that move: a TOML scenario declares the \
cluster shape, workload preset, arrival process (poisson | diurnal | \
spikes | up-and-down), failure profile, data-quality profile, and \
policy arm, and is parsed into one validated spec with typed \
line/field diagnostics. Four presets are committed under \
`scenarios/`:\n\n\
| preset | cluster | workload | arrivals | failures |\n\
|---|---|---|---|---|\n\
| `supercloud` | 224 nodes x 2 V100 | the paper's 125-day world | \
diurnal | off |\n\
| `philly` | same hardware | Philly-style single-GPU-heavy mix | \
diurnal | supercloud |\n\
| `nersc` | 512 nodes x 4 GPUs, Slingshot | allocation-cycle batch | \
up-and-down | supercloud |\n\
| `in2p3` | 96 GPU + 128 CPU nodes | HEP grid, CPU-burst-heavy | \
monthly spikes | transient |\n\n\
`--cross-system` replays every requested scenario through the \
*identical* simulator, telemetry, and analysis pipeline at one common \
scale and seed, so every difference in the comparison table is \
attributable to the declared scenario, not to methodology drift. A \
bare run *is* the `supercloud` preset, and each CLI flag edits one \
field of the named scenario, so there is one configuration path \
(`tests/scenario_invariants.rs` pins the preset against a hand-built \
reference pipeline); malformed scenarios are rejected with typed \
errors, never panics (property-tested over the grammar). Reproduce \
with:\n\n\
```text\n\
repro_figures --scenario scenarios/supercloud.toml   # == no flags\n\
repro_figures --scenario nersc --scale 0.05          # one preset\n\
repro_figures --cross-system all --scale 0.05        # the comparison\n\
```\n";

fn main() {
    let args = parse_args();
    if let Some(n) = args.threads {
        sc_par::set_max_threads(n);
    }
    let sc = &args.scenario;
    let (scale, seed) = (sc.scale, sc.seed);
    let spec = sc.scaled_spec(scale);
    let sim_config = sc.sim_config(scale, seed);
    let policy = sc.policy_spec();
    let data_quality = sc.data_quality_profile();
    let classifier_cfg = sc.classifier_config();
    eprintln!("scenario {} (hash {:016x})", sc.name, sc.hash());
    eprintln!(
        "generating {} jobs / {} users over {} days (seed {}, {} threads) ...",
        spec.total_jobs,
        spec.users,
        spec.duration_days,
        seed,
        sc_par::current_threads()
    );
    let stage_log = StageLog::new();
    let t0 = std::time::Instant::now();
    let trace = stage_log.time("trace_gen", || Trace::generate(&spec, seed));
    let trace_gen_secs = t0.elapsed().as_secs_f64();
    if let (Some(model), Some(checkpoint)) = (&sim_config.failures, &sim_config.checkpoint) {
        eprintln!(
            "failure injection on: {} classes, checkpoint interval {:.0}s",
            model.classes.len(),
            checkpoint.interval_secs
        );
    }
    let sink = args.trace.as_ref().map(|path| {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(&format!("cannot create trace file {path}: {e}")));
        JsonlSink::new(args.trace_level, file)
    });
    // One handle for every stage: the sink when --trace is given,
    // otherwise the disabled handle, whose output is identical.
    let obs = match &sink {
        Some(s) => Obs::new(s),
        None => Obs::off(),
    };
    let flush_trace =
        || obs.flush().unwrap_or_else(|e| fail(&format!("cannot flush trace file: {e}")));
    let t0 = std::time::Instant::now();
    let sim_start = stage_log.elapsed_secs();
    let (out, timings) = Simulation::new(sim_config.clone()).run_observed(&trace, &obs, None);
    stage_log.push("sim_event_loop", sim_start, timings.event_loop_secs);
    stage_log.push("telemetry", sim_start + timings.event_loop_secs, timings.telemetry_secs);
    flush_trace();
    eprintln!("simulated in {:?}; analyzing ...", t0.elapsed());
    let t0 = std::time::Instant::now();
    let report = AnalysisReport::try_from_sim_logged(&out, &stage_log)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let analysis_secs = t0.elapsed().as_secs_f64();

    // The Chrome sidecar carries the wall-clock stage spans (trace
    // generation, event loop, telemetry batch, every figure) — load it
    // in chrome://tracing or https://ui.perfetto.dev.
    if let Some(path) = &args.trace {
        let chrome_path = format!("{path}.chrome.json");
        std::fs::write(&chrome_path, chrome_trace_json(&stage_log.spans()))
            .unwrap_or_else(|e| fail(&format!("cannot write {chrome_path}: {e}")));
        eprintln!("wrote {path} (sim-time JSONL) and {chrome_path} (Perfetto stages)");
    }

    let stages = [
        Stage { name: "trace_gen", secs: trace_gen_secs },
        Stage { name: "sim_event_loop", secs: timings.event_loop_secs },
        Stage { name: "telemetry", secs: timings.telemetry_secs },
        Stage { name: "analysis", secs: analysis_secs },
    ];
    if let Some(path) = &args.bench_json {
        let json = bench_json(sc_par::current_threads(), scale, seed, trace.jobs().len(), &stages);
        std::fs::write(path, json)
            .unwrap_or_else(|e| fail(&format!("cannot write bench json {path}: {e}")));
        eprintln!("wrote {path}");
    }

    println!("{}", report.render_text());
    println!("detailed-series jobs collected: {}", out.detailed.len());
    println!("simulation stats: {:?}", out.stats);

    // Streaming-vs-batch cross-validation: every one-pass aggregate the
    // telemetry stage folded in flight is re-derived from the
    // materialized dataset and held to its documented error law. A
    // divergence means the streaming engine broke the batch contract,
    // so it is a hard failure, like an unbalanced ingest ledger.
    let streaming_fig = match sc_core::StreamingTelemetryFig::try_compute(&out) {
        Ok(fig) => {
            println!("{}", fig.render());
            if !fig.passes() {
                fail("streaming telemetry aggregates diverge from the batch dataset");
            }
            Some(fig)
        }
        Err(_) => None, // CPU-only trace: nothing streamed
    };

    println!("\n================ paper vs measured ================\n");
    for (title, rows) in report.all_comparisons() {
        println!("{title}");
        for r in rows {
            println!(
                "  {:<42} paper {:>9.3} {:<4} measured {:>9.3}",
                r.metric, r.paper, r.unit, r.measured
            );
        }
        println!();
    }

    if let Some(dir) = &args.svg_dir {
        let files = sc_core::svg::write_report_svgs(&report, std::path::Path::new(dir))
            .unwrap_or_else(|e| fail(&format!("cannot write SVGs to {dir}: {e}")));
        eprintln!("wrote {} SVG figures to {dir}", files.len());
    }

    // Extra analyses: the Fig. 2 workflow chain and the Sec. II arrival
    // patterns.
    let views = sc_core::gpu_views(&out.dataset);
    println!("{}", sc_core::WorkflowChain::fit(&views).render());
    println!(
        "{}",
        sc_core::arrivals::ArrivalAnalysis::compute(&out.dataset).render(&spec.deadline_days)
    );

    println!(
        "{}",
        sc_core::facility::reconstruct(
            &views,
            sc_telemetry::gpu_power::SUPERCLOUD_GPUS,
            sc_telemetry::gpu_power::V100_TDP_W,
            sc_telemetry::gpu_power::V100_IDLE_W,
        )
        .render()
    );

    // Opportunity studies (Secs. III/VI/VIII) over the same population.
    let opportunity = OpportunityReport::run(&views, 400);
    println!("{}", opportunity.render());

    // Closed-loop policy A/B: replay the same trace with no policy and
    // with the selected policy, on the same configuration minus the
    // detailed-series sampling (the deltas don't need it). The policy
    // arm shares the CLI's trace sink so every cap_throttle /
    // coshare_place / tier_route decision lands in --trace output.
    let policy_ab = (policy != PolicySpec::Off).then(|| {
        eprintln!("running policy A/B ({}) ...", policy.label());
        let t0 = std::time::Instant::now();
        let mut exp = PolicyExperiment::new(
            SimConfig { detailed_series_jobs: 0, ..sim_config.clone() },
            policy,
        );
        exp.classifier = classifier_cfg.clone();
        let result =
            exp.run_observed(&trace, &obs).unwrap_or_else(|e| fail(&format!("policy A/B: {e}")));
        eprintln!("policy A/B done in {:?}", t0.elapsed());
        println!("{}", result.fig.render());
        if let Some(fig) = &result.oracle_fig {
            println!("{}", fig.render());
        }
        if let (Some(pp), Some(wait)) =
            (result.predicted_vs_oracle_goodput_pp(), result.predicted_vs_oracle_wait_secs())
        {
            println!(
                "predicted vs oracle placement: goodput {pp:+.3} pp, mean queue wait \
                 {wait:+.1} s (negative goodput = classifier error cost)\n"
            );
        }
        result
    });
    flush_trace();
    if let (Some(result), Some(dir)) = (&policy_ab, &args.svg_dir) {
        let path = std::path::Path::new(dir).join("policy_ab.svg");
        std::fs::write(&path, result.fig.to_svg())
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        eprintln!("wrote {}", path.display());
    }

    // Workload classification: train the archetype classifier on the
    // same trace and report the held-out confusion matrix. When the
    // coshare-predicted harness already trained one (with the identical
    // config), reuse its evaluation instead of training twice.
    let classifier_fig = sc.classifier.enabled.then(|| {
        let eval = match policy_ab.as_ref().and_then(|r| r.classifier_eval.clone()) {
            Some(eval) => eval,
            None => {
                eprintln!(
                    "training workload classifier ({} trees, seed {}) ...",
                    classifier_cfg.trees, classifier_cfg.seed
                );
                let t0 = std::time::Instant::now();
                let (_, eval) = ArchetypePredictor::train(&trace, &classifier_cfg);
                eprintln!("classifier trained in {:?}", t0.elapsed());
                eval
            }
        };
        let fig = eval.to_fig();
        println!("{}", fig.render());
        fig
    });
    if let (Some(fig), Some(dir)) = (&classifier_fig, &args.svg_dir) {
        let path = std::path::Path::new(dir).join("classifier_confusion.svg");
        std::fs::write(&path, fig.to_svg())
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &args.classifier_json {
        let fig = classifier_fig.as_ref().expect("--classifier-json implies --classify");
        std::fs::write(path, classifier_json(fig, policy_ab.as_ref()))
            .unwrap_or_else(|e| fail(&format!("cannot write classifier json {path}: {e}")));
        eprintln!("wrote {path}");
    }

    // Data-quality round trip: corrupt the recorded dataset with the
    // selected collection-fault profile, repair it through the hardened
    // ingest stage, and re-run the figure pipeline on the recovered
    // dataset. `off` (the default) skips the stage entirely, so the
    // stock reproduction stays byte-identical.
    let data_quality_fig = (data_quality != DataQualityProfile::Off).then(|| {
        eprintln!("running data-quality round trip ({}) ...", data_quality.label());
        let t0 = std::time::Instant::now();
        let clean_report = DatasetReport::try_from_dataset(&out.dataset)
            .unwrap_or_else(|e| fail(&format!("clean pipeline failed: {e}")));
        let (ingested, injected) =
            sc_core::corrupt_and_ingest(&out.dataset, data_quality, seed, &obs)
                .unwrap_or_else(|e| fail(&format!("ingest failed: {e}")));
        let recovered = DatasetReport::try_from_dataset(&ingested.dataset)
            .unwrap_or_else(|e| fail(&format!("recovered pipeline failed: {e}")));
        let study = sc_core::ingest::series_study(data_quality, seed, 64, 1_800.0, 0.1)
            .unwrap_or_else(|e| fail(&format!("series study failed: {e}")));
        let fig = DataQualityFig::compute(
            data_quality.label(),
            injected,
            ingested.report,
            &clean_report,
            &recovered,
            Some(study),
        );
        eprintln!("data-quality round trip done in {:?}", t0.elapsed());
        println!("{}", fig.render());
        if !fig.balanced() {
            fail("data-quality ledger does not balance");
        }
        fig
    });
    flush_trace();
    if let (Some(fig), Some(dir)) = (&data_quality_fig, &args.svg_dir) {
        let path = std::path::Path::new(dir).join("data_quality.svg");
        std::fs::write(&path, fig.to_svg())
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        eprintln!("wrote {}", path.display());
    }

    // Cross-system comparison: replay the requested scenario list
    // through the identical pipeline at the effective scale and seed.
    // Off by default, so the stock reproduction stays byte-identical.
    let cross_system = (!args.cross_system.is_empty()).then(|| {
        eprintln!("running cross-system comparison ({} systems) ...", args.cross_system.len());
        let t0 = std::time::Instant::now();
        let fig = CrossSystemFig::run(&args.cross_system, scale, seed)
            .unwrap_or_else(|e| fail(&format!("cross-system comparison: {e}")));
        eprintln!("cross-system comparison done in {:?}", t0.elapsed());
        println!("{}", fig.render());
        fig
    });
    if let (Some(fig), Some(dir)) = (&cross_system, &args.svg_dir) {
        let path = std::path::Path::new(dir).join("cross_system.svg");
        std::fs::write(&path, fig.to_svg())
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        eprintln!("wrote {}", path.display());
    }

    // Reliability-at-scale study: per-size-class failure table, goodput
    // frontier, Young/Daly checkpoint sweep, and (with growth factors)
    // the cluster-growth replay, when the scenario's `[reliability]`
    // stage is on.
    let reliability_report = sc.reliability.enabled.then(|| {
        let model = sc.reliability_model(seed);
        let rel_cfg = sc.reliability_config();
        eprintln!(
            "running reliability study ({} MTBF factors, {}-point sweep, {} growth factors) ...",
            rel_cfg.mtbf_factors.len(),
            rel_cfg.sweep_points,
            rel_cfg.growth_factors.len()
        );
        let t0 = std::time::Instant::now();
        let base = SimConfig { detailed_series_jobs: 0, ..sim_config.clone() };
        let report = sc_core::run_reliability_study(&trace, &base, &model, &rel_cfg);
        let study = t0.elapsed();
        eprintln!("reliability study done in {study:?}");
        println!("{}", report.render());
        (report, study.as_secs_f64())
    });
    if let Some(path) = &args.reliability_json {
        let (report, study_secs) =
            reliability_report.as_ref().expect("--reliability-json implies --reliability");
        std::fs::write(path, reliability_json(report, *study_secs))
            .unwrap_or_else(|e| fail(&format!("cannot write reliability json {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let (Some((report, _)), Some(dir)) = (&reliability_report, &args.svg_dir) {
        for (name, svg) in reliability_svgs(report) {
            let path = std::path::Path::new(dir).join(name);
            std::fs::write(&path, svg)
                .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
            eprintln!("wrote {}", path.display());
        }
    }

    if let Some(path) = args.out {
        let mut md = report.experiments_markdown();
        md.push_str(KNOWN_GAPS);
        md.push_str(FAILURE_TAXONOMY);
        md.push_str(TRACING);
        md.push_str(STREAMING_BENCH);
        md.push_str(&format!(
            "\nThis run (scale {}, seed {}, {} threads):\n\n\
             | stage | secs | jobs/sec |\n|---|---|---|\n",
            scale,
            seed,
            sc_par::current_threads()
        ));
        for s in &stages {
            md.push_str(&format!(
                "| {} | {:.3} | {:.0} |\n",
                s.name,
                s.secs,
                trace.jobs().len() as f64 / s.secs.max(1e-9)
            ));
        }
        md.push_str(&format!(
            "\nPeak RSS this run: {:.1} MiB.\n",
            peak_rss_bytes() as f64 / (1024.0 * 1024.0)
        ));
        if let Some(fig) = &streaming_fig {
            md.push_str("\n```text\n");
            md.push_str(&fig.render());
            md.push_str("```\n");
        }
        md.push_str(SERVE_METHODOLOGY);
        md.push_str("\n## Beyond the figures\n\n```text\n");
        md.push_str(&sc_core::WorkflowChain::fit(&views).render());
        md.push('\n');
        md.push_str(
            &sc_core::arrivals::ArrivalAnalysis::compute(&out.dataset).render(&spec.deadline_days),
        );
        md.push('\n');
        md.push_str(
            &sc_core::facility::reconstruct(
                &views,
                sc_telemetry::gpu_power::SUPERCLOUD_GPUS,
                sc_telemetry::gpu_power::V100_TDP_W,
                sc_telemetry::gpu_power::V100_IDLE_W,
            )
            .render(),
        );
        md.push_str("```\n");
        md.push_str("\n## Opportunity studies (Secs. III, VI, VIII)\n\n```text\n");
        md.push_str(&opportunity.render());
        md.push_str("```\n");
        if let Some(result) = &policy_ab {
            md.push_str(POLICY_AB);
            md.push_str("\n```text\n");
            md.push_str(&result.fig.render());
            if let Some(fig) = &result.oracle_fig {
                md.push('\n');
                md.push_str(&fig.render());
            }
            md.push_str("```\n");
            if let (Some(pp), Some(wait)) =
                (result.predicted_vs_oracle_goodput_pp(), result.predicted_vs_oracle_wait_secs())
            {
                md.push_str(&format!(
                    "\nPredicted-label vs oracle-label placement: goodput {pp:+.3} pp, \
                     mean queue wait {wait:+.1} s — the measured cost of routing on the \
                     classifier's labels instead of ground truth.\n"
                ));
            }
        }
        if let Some(fig) = &classifier_fig {
            md.push_str(CLASSIFIER_METHODOLOGY);
            md.push_str("\n```text\n");
            md.push_str(&fig.render());
            md.push_str("```\n");
            md.push_str(
                "\nThe rendered heatmap lands at `figs/classifier_confusion.svg` with \
                 `--svg-dir figs`.\n",
            );
        }
        if let Some(fig) = &data_quality_fig {
            md.push_str(DATA_QUALITY);
            md.push_str("\n```text\n");
            md.push_str(&fig.render());
            md.push_str("```\n");
        }
        md.push_str(RELIABILITY);
        if let Some((report, _)) = &reliability_report {
            md.push_str("\n```text\n");
            md.push_str(&report.render());
            md.push_str("```\n");
        } else {
            md.push_str(
                "\nThis run did not request the study; produce it with \
                 `--reliability` (add `--growth 2,8,32` for the cluster-growth \
                 replay; the weekly CI job archives the full-scale version).\n",
            );
        }
        md.push_str(CROSS_SYSTEM);
        if let Some(fig) = &cross_system {
            md.push_str("\n```text\n");
            md.push_str(&fig.render());
            md.push_str("```\n");
        } else {
            md.push_str(
                "\nThis run did not request a comparison; the table is \
                 produced by `--cross-system` (the weekly CI job archives \
                 the full-scale version).\n",
            );
        }
        md.push_str(&format!(
            "\n---\nGenerated by `repro_figures --scale {} --seed {}`; detailed subset {} jobs; \
             simulated {} events.\n",
            scale,
            seed,
            out.detailed.len(),
            out.stats.events
        ));
        std::fs::write(&path, md)
            .unwrap_or_else(|e| fail(&format!("cannot write report {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

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
//! The run prints the figure series and every optional study to
//! stdout, and writes the files its flags name (`--help` lists them).
//! Each study's text is computed once: stdout and the `--out` Markdown
//! report share it. The report gives each section its heading, this
//! run's output and a link to the README section that documents its
//! methodology, so the prose has one home. The JSON artifacts
//! (`--bench-json`, `--classifier-json`, `--reliability-json`) encode
//! strings and numbers through [`sc_obs::json`].

use sc_bench::peak_rss_bytes;
use sc_cluster::{FailureModel, SimConfig, Simulation};
use sc_core::{AnalysisReport, ClassifierFig, DataQualityFig, Figure, ReliabilityReport};
use sc_learn::ArchetypePredictor;
use sc_obs::{chrome_trace_json, json, JsonlSink, Obs, StageLog, TraceLevel};
use sc_opportunity::OpportunityReport;
use sc_policy::{ExperimentResult, PolicyExperiment, PolicyParseError, PolicySpec};
use sc_scenario::{CrossSystemFig, Scenario};
use sc_telemetry::gpu_power::{SUPERCLOUD_GPUS, V100_IDLE_W, V100_TDP_W};
use sc_telemetry::DataQualityProfile;
use sc_workload::{Trace, WorkloadSpec};
use std::path::Path;
use std::time::Instant;

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
  --scale F            scale the scenario's workload by F, above 0 and
                       at most 100 (supercloud: the 125-day / 74,820-job
                       trace at 1.0)
  --seed N             master RNG seed (supercloud: 42)
  --out FILE           also write the Markdown paper-vs-measured report
  --svg-dir DIR        write the SVG figure set into DIR
  --threads N          cap the worker pool, 1 to 1024 (default: all cores)
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

/// Parses an integer flag value.
fn integer<T: std::str::FromStr>(flag: &str, s: &str) -> T {
    s.parse().unwrap_or_else(|_| usage_error(&format!("{flag} needs an integer")))
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
            "--scale" => {
                let factor = value("--scale")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--scale needs a number"));
                let checked = WorkloadSpec::check_scale(factor)
                    .unwrap_or_else(|e| usage_error(&format!("--scale {e}")));
                scale = Some(checked);
            }
            "--seed" => seed = Some(integer("--seed", &value("--seed"))),
            "--out" => out = Some(value("--out")),
            "--svg-dir" => svg_dir = Some(value("--svg-dir")),
            "--threads" => {
                threads = Some(
                    sc_par::parse_thread_budget(&value("--threads"))
                        .unwrap_or_else(|e| usage_error(&format!("--threads {e}"))),
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
                    usage_error(&match e {
                        PolicyParseError::BadWatts(_) => format!("bad watts in --policy {arm:?}"),
                        PolicyParseError::WattsOutOfRange(_) => format!("--policy {e}"),
                        PolicyParseError::UnknownName(_) => e.to_string(),
                    });
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

/// Pre-rendered JSON members or array elements, one per line, with the
/// separating commas.
fn lines(rows: &[String]) -> String {
    let mut s = rows.join(",\n");
    if !s.is_empty() {
        s.push('\n');
    }
    s
}

/// Renders the benchmark report by hand: four stages and a handful of
/// scalars do not warrant a serialization dependency in a binary.
fn bench_json(threads: usize, scale: f64, seed: u64, jobs: usize, stages: &[Stage]) -> String {
    let num = json::number;
    let per_sec = |secs: f64| num(jobs as f64 / secs.max(1e-9), Some(1));
    let total: f64 = stages.iter().map(|s| s.secs).sum();
    let rows: Vec<String> = stages
        .iter()
        .map(|s| {
            format!(
                "    {}: {{ \"secs\": {}, \"jobs_per_sec\": {} }}",
                json::string(s.name),
                num(s.secs, Some(6)),
                per_sec(s.secs)
            )
        })
        .collect();
    format!(
        "{{\n  \"threads\": {threads},\n  \"scale\": {},\n  \"seed\": {seed},\n  \
         \"jobs\": {jobs},\n  \"stages\": {{\n{}  }},\n  \"peak_rss_bytes\": {},\n  \
         \"total_secs\": {},\n  \"total_jobs_per_sec\": {}\n}}\n",
        num(scale, None),
        lines(&rows),
        peak_rss_bytes(),
        num(total, Some(6)),
        per_sec(total)
    )
}

/// Renders the classifier gate metrics by hand, like [`bench_json`].
/// `goodput_delta_pp` is `null` unless the `coshare-predicted` policy
/// harness ran its oracle arm alongside.
fn classifier_json(fig: &ClassifierFig, policy: Option<&ExperimentResult>) -> String {
    let delta = policy.and_then(|r| r.predicted_vs_oracle_goodput_pp()).unwrap_or(f64::NAN);
    format!(
        "{{\n  \"accuracy\": {},\n  \"centroid_accuracy\": {},\n  \"train_jobs\": {},\n  \
         \"test_jobs\": {},\n  \"goodput_delta_pp\": {}\n}}\n",
        json::number(fig.accuracy, Some(6)),
        json::number(fig.centroid_accuracy, Some(6)),
        fig.train_count,
        fig.test_count,
        json::number(delta, Some(6))
    )
}

/// Renders the reliability gate metrics by hand, like [`bench_json`]:
/// the three scalars `scripts/check_bench.py --reliability` gates, the
/// study's wall time `--reliability-scaling` compares across thread
/// budgets, and the per-class sweep verdicts and growth timings behind
/// them. Missing and non-finite values (a class the model cannot fail,
/// an empty growth list) render as `null`, which the gate script treats
/// as "not measured" for detail rows and a hard failure for gated
/// scalars.
fn reliability_json(report: &ReliabilityReport, study_secs: f64) -> String {
    let num = |v: Option<f64>, prec| json::number(v.unwrap_or(f64::NAN), Some(prec));
    let min_jps =
        report.growth_timings.iter().map(|t| t.jobs_per_sec()).fold(f64::INFINITY, f64::min);
    let classes: Vec<String> = report
        .sweep
        .classes
        .iter()
        .map(|c| {
            format!(
                "    {{ \"label\": {}, \"gpus\": {}, \"analytic_secs\": {}, \
                 \"simulated_secs\": {}, \"ratio\": {} }}",
                json::string(&c.label),
                c.gpus,
                num(Some(c.analytic_secs), 1),
                num(c.simulated_secs, 1),
                num(c.ratio(), 6)
            )
        })
        .collect();
    let growth: Vec<String> = report
        .growth_timings
        .iter()
        .map(|t| {
            format!(
                "    {{ \"factor\": {}, \"jobs\": {}, \"event_loop_secs\": {}, \
                 \"jobs_per_sec\": {} }}",
                json::number(t.factor, None),
                t.jobs,
                num(Some(t.event_loop_secs), 6),
                num(Some(t.jobs_per_sec()), 1)
            )
        })
        .collect();
    format!(
        "{{\n  \"sweep_worst_ratio\": {},\n  \"frontier_monotone_violation\": {},\n  \
         \"growth_min_jobs_per_sec\": {},\n  \"study_secs\": {},\n  \
         \"sweep_classes\": [\n{}  ],\n  \"growth\": [\n{}  ]\n}}\n",
        num(report.sweep.worst_ratio(), 6),
        num(Some(report.frontier.monotone_violation()), 6),
        num(Some(min_jps), 1),
        num(Some(study_secs), 6),
        lines(&classes),
        lines(&growth)
    )
}

/// Prints a runtime (non-usage) error and exits with status 1.
fn fail(msg: &str) -> ! {
    eprintln!("repro_figures: {msg}");
    std::process::exit(1);
}

/// Writes one output file and names it on stderr, or exits with
/// status 1.
fn write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    std::fs::write(path, contents)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
    eprintln!("wrote {}", path.display());
}

/// Opens an `--out` section: its heading, then a link to the README
/// section (`anchor`) that documents its methodology.
fn heading(md: &mut String, title: &str, anchor: &str) {
    md.push_str(&format!(
        "\n## {title}\n\nThe methodology is in [README.md](README.md#{anchor}).\n"
    ));
}

/// Appends this run's output of a section as a text block.
fn text_block(md: &mut String, text: &str) {
    md.push_str(&format!("\n```text\n{text}```\n"));
}

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
    let svg_dir = args.svg_dir.as_deref().map(Path::new);
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
    let t0 = Instant::now();
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
    let t0 = Instant::now();
    let sim_start = stage_log.elapsed_secs();
    let (out, timings) = Simulation::new(sim_config.clone()).run_observed(&trace, &obs, None);
    stage_log.push("sim_event_loop", sim_start, timings.event_loop_secs);
    stage_log.push("telemetry", sim_start + timings.event_loop_secs, timings.telemetry_secs);
    flush_trace();
    eprintln!("simulated in {:?}; analyzing ...", t0.elapsed());
    let t0 = Instant::now();
    let report = AnalysisReport::try_from_sim_logged(&out, &stage_log)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let analysis_secs = t0.elapsed().as_secs_f64();

    // The Chrome sidecar carries the wall-clock stage spans (trace
    // generation, event loop, telemetry batch, every figure) — load it
    // in chrome://tracing or https://ui.perfetto.dev.
    if let Some(path) = &args.trace {
        write(format!("{path}.chrome.json"), chrome_trace_json(&stage_log.spans()));
    }

    let stages = [
        Stage { name: "trace_gen", secs: trace_gen_secs },
        Stage { name: "sim_event_loop", secs: timings.event_loop_secs },
        Stage { name: "telemetry", secs: timings.telemetry_secs },
        Stage { name: "analysis", secs: analysis_secs },
    ];
    let jobs = trace.jobs().len();
    if let Some(path) = &args.bench_json {
        write(path, bench_json(sc_par::current_threads(), scale, seed, jobs, &stages));
    }

    println!("{}", report.render_text());
    println!("detailed-series jobs collected: {}", out.detailed.len());
    println!("simulation stats: {:?}", out.stats);

    // Streaming-vs-batch cross-validation: every one-pass aggregate the
    // telemetry stage folded in flight is re-derived from the
    // materialized dataset and held to its documented error law. A
    // divergence means the streaming engine broke the batch contract,
    // so it is a hard failure, like an unbalanced ingest ledger.
    let streaming = sc_core::StreamingTelemetryFig::try_compute(&out).ok().map(|fig| {
        let text = fig.render();
        println!("{text}");
        if !fig.passes() {
            fail("streaming telemetry aggregates diverge from the batch dataset");
        }
        text
    }); // CPU-only trace: nothing streamed

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

    if let Some(dir) = svg_dir {
        let files = sc_core::svg::write_report_svgs(&report, dir)
            .unwrap_or_else(|e| fail(&format!("cannot write SVGs to {}: {e}", dir.display())));
        eprintln!("wrote {} SVG figures to {}", files.len(), dir.display());
    }

    // Extra analyses: the Fig. 2 workflow chain, the Sec. II arrival
    // patterns and the facility power reconstruction, then the
    // opportunity studies (Secs. III/VI/VIII) over the same population.
    let views = sc_core::gpu_views(&out.dataset);
    let beyond = format!(
        "{}\n{}\n{}",
        sc_core::WorkflowChain::fit(&views).render(),
        sc_core::arrivals::ArrivalAnalysis::compute(&out.dataset).render(&spec.deadline_days),
        sc_core::facility::reconstruct(&views, SUPERCLOUD_GPUS, V100_TDP_W, V100_IDLE_W).render()
    );
    println!("{beyond}");
    let t0 = Instant::now();
    let opportunity = OpportunityReport::run(&views, 400).render();
    eprintln!("opportunity studies done in {:?}", t0.elapsed());
    println!("{opportunity}");

    // Closed-loop policy A/B: replay the same trace with no policy and
    // with the selected policy, on the same configuration minus the
    // detailed-series sampling (the deltas don't need it). The policy
    // arm shares the CLI's trace sink so every cap_throttle /
    // coshare_place / tier_route decision lands in --trace output.
    let policy_ab = (policy != PolicySpec::Off).then(|| {
        eprintln!("running policy A/B ({}) ...", policy.label());
        let t0 = Instant::now();
        let mut exp = PolicyExperiment::new(
            SimConfig { detailed_series_jobs: 0, ..sim_config.clone() },
            policy,
        );
        exp.classifier = classifier_cfg.clone();
        let result =
            exp.run_observed(&trace, &obs).unwrap_or_else(|e| fail(&format!("policy A/B: {e}")));
        eprintln!("policy A/B done in {:?}", t0.elapsed());
        let mut text = result.fig.render();
        if let Some(fig) = &result.oracle_fig {
            text.push('\n');
            text.push_str(&fig.render());
        }
        println!("{text}");
        if let (Some(pp), Some(wait)) =
            (result.predicted_vs_oracle_goodput_pp(), result.predicted_vs_oracle_wait_secs())
        {
            println!(
                "predicted vs oracle placement: goodput {pp:+.3} pp, mean queue wait \
                 {wait:+.1} s (negative goodput = classifier error cost)\n"
            );
        }
        if let Some(dir) = svg_dir {
            write(dir.join("policy_ab.svg"), result.fig.to_svg());
        }
        (result, text)
    });
    flush_trace();
    let policy_result = policy_ab.as_ref().map(|(result, _)| result);

    // Workload classification: train the archetype classifier on the
    // same trace and report the held-out confusion matrix. When the
    // coshare-predicted harness already trained one (with the identical
    // config), reuse its evaluation instead of training twice.
    let classifier_fig = sc.classifier.enabled.then(|| {
        let eval = match policy_result.and_then(|r| r.classifier_eval.clone()) {
            Some(eval) => eval,
            None => {
                eprintln!(
                    "training workload classifier ({} trees, seed {}) ...",
                    classifier_cfg.trees, classifier_cfg.seed
                );
                let t0 = Instant::now();
                let (_, eval) = ArchetypePredictor::train(&trace, &classifier_cfg);
                eprintln!("classifier trained in {:?}", t0.elapsed());
                eval
            }
        };
        let fig = eval.to_fig();
        let text = fig.render();
        println!("{text}");
        if let Some(dir) = svg_dir {
            write(dir.join("classifier_confusion.svg"), fig.to_svg());
        }
        (fig, text)
    });
    if let Some(path) = &args.classifier_json {
        let (fig, _) = classifier_fig.as_ref().expect("--classifier-json implies --classify");
        write(path, classifier_json(fig, policy_result));
    }

    // Data-quality round trip: corrupt the recorded dataset with the
    // selected collection-fault profile, repair it through the hardened
    // ingest stage, and re-run the figure pipeline on the recovered
    // dataset. `off` (the default) skips the stage entirely, so the
    // stock reproduction stays byte-identical.
    let data_quality_text = (data_quality != DataQualityProfile::Off).then(|| {
        eprintln!("running data-quality round trip ({}) ...", data_quality.label());
        let t0 = Instant::now();
        let study = sc_core::ingest::series_study(data_quality, seed, 64, 1_800.0, 0.1)
            .unwrap_or_else(|e| fail(&format!("series study failed: {e}")));
        let fig = DataQualityFig::round_trip(&out.dataset, data_quality, seed, &obs, Some(study))
            .unwrap_or_else(|e| fail(&format!("data-quality round trip: {e}")));
        eprintln!("data-quality round trip done in {:?}", t0.elapsed());
        let text = fig.render();
        println!("{text}");
        if !fig.balanced() {
            fail("data-quality ledger does not balance");
        }
        if let Some(dir) = svg_dir {
            write(dir.join("data_quality.svg"), fig.to_svg());
        }
        text
    });
    flush_trace();

    // Cross-system comparison: replay the requested scenario list
    // through the identical pipeline at the effective scale and seed.
    // Off by default, so the stock reproduction stays byte-identical.
    let cross_system_text = (!args.cross_system.is_empty()).then(|| {
        eprintln!("running cross-system comparison ({} systems) ...", args.cross_system.len());
        let t0 = Instant::now();
        let fig = CrossSystemFig::run(&args.cross_system, scale, seed)
            .unwrap_or_else(|e| fail(&format!("cross-system comparison: {e}")));
        eprintln!("cross-system comparison done in {:?}", t0.elapsed());
        let text = fig.render();
        println!("{text}");
        if let Some(dir) = svg_dir {
            write(dir.join("cross_system.svg"), fig.to_svg());
        }
        text
    });

    // Reliability-at-scale study: per-size-class failure table, goodput
    // frontier, Young/Daly checkpoint sweep, and (with growth factors)
    // the cluster-growth replay, when the scenario's `[reliability]`
    // stage is on.
    let reliability_text = sc.reliability.enabled.then(|| {
        let model = sc.reliability_model(seed);
        let rel_cfg = sc.reliability_config();
        eprintln!(
            "running reliability study ({} MTBF factors, {}-point sweep, {} growth factors) ...",
            rel_cfg.mtbf_factors.len(),
            rel_cfg.sweep_points,
            rel_cfg.growth_factors.len()
        );
        let t0 = Instant::now();
        let base = SimConfig { detailed_series_jobs: 0, ..sim_config.clone() };
        let report = sc_core::run_reliability_study(&trace, &base, &model, &rel_cfg);
        let study = t0.elapsed();
        eprintln!("reliability study done in {study:?}");
        let text = report.render();
        println!("{text}");
        if let Some(path) = &args.reliability_json {
            write(path, reliability_json(&report, study.as_secs_f64()));
        }
        if let Some(dir) = svg_dir {
            for (name, svg) in sc_core::svg::reliability_svgs(&report) {
                write(dir.join(name), svg);
            }
        }
        text
    });

    let Some(path) = &args.out else { return };
    let mut md = report.experiments_markdown();
    let failures = "Failure taxonomy and goodput accounting";
    heading(&mut md, failures, "failure-taxonomy-and-goodput-accounting");
    heading(&mut md, "ClusterTimeline and deterministic tracing", "tracing");
    heading(&mut md, "Streaming telemetry engine", "streaming-telemetry");
    let threads = sc_par::current_threads();
    md.push_str(&format!(
        "\nThis run (scale {scale}, seed {seed}, {threads} threads):\n\n\
         | stage | secs | jobs/sec |\n|---|---|---|\n"
    ));
    for s in &stages {
        let per_sec = jobs as f64 / s.secs.max(1e-9);
        md.push_str(&format!("| {} | {:.3} | {per_sec:.0} |\n", s.name, s.secs));
    }
    md.push_str(&format!(
        "\nPeak RSS this run: {:.1} MiB.\n",
        peak_rss_bytes() as f64 / (1024.0 * 1024.0)
    ));
    if let Some(text) = &streaming {
        text_block(&mut md, text);
    }
    heading(&mut md, "Query service methodology", "query-service");
    md.push_str("\n## Beyond the figures\n");
    text_block(&mut md, &beyond);
    md.push_str("\n## Opportunity studies (Secs. III, VI, VIII)\n");
    text_block(&mut md, &opportunity);
    if let Some((result, text)) = &policy_ab {
        heading(&mut md, "Closed-loop policy A/B", "policy-engine");
        text_block(&mut md, text);
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
    if let Some((_, text)) = &classifier_fig {
        heading(&mut md, "Workload classification", "workload-classification");
        text_block(&mut md, text);
        md.push_str(
            "\nThe rendered heatmap lands at `figs/classifier_confusion.svg` with \
             `--svg-dir figs`.\n",
        );
    }
    if let Some(text) = &data_quality_text {
        heading(&mut md, "Data quality & ingest repair", "data-quality--ingest-repair");
        text_block(&mut md, text);
    }
    heading(&mut md, "Reliability at scale", "reliability-at-scale");
    match &reliability_text {
        Some(text) => text_block(&mut md, text),
        None => md.push_str(
            "\nThis run did not request the study; produce it with \
             `--reliability` (add `--growth 2,8,32` for the cluster-growth \
             replay; the weekly CI job archives the full-scale version).\n",
        ),
    }
    heading(&mut md, "Cross-system comparison methodology", "scenarios");
    match &cross_system_text {
        Some(text) => text_block(&mut md, text),
        None => md.push_str(
            "\nThis run did not request a comparison; the table is \
             produced by `--cross-system` (the weekly CI job archives \
             the full-scale version).\n",
        ),
    }
    let quote = |a: String| if a.contains(char::is_whitespace) { format!("'{a}'") } else { a };
    let command: Vec<String> = std::iter::once("repro_figures".to_string())
        .chain(std::env::args().skip(1).map(quote))
        .collect();
    md.push_str(&format!(
        "\n---\nGenerated by `{}`; detailed subset {} jobs; simulated {} events.\n",
        command.join(" "),
        out.detailed.len(),
        out.stats.events
    ));
    write(path, md);
}

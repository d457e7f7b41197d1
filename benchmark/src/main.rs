//! The repository benchmark.
//!
//! ```text
//! benchmark --workload repro_full|whatif_growth|serve_churn
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds each workload's inputs from `--seed`, runs its operation back
//! to back for `--seconds` seconds, checks every output, and prints
//! each metric as `name value unit`, then one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced operations, reports the per-layer metrics taken
//! from the traced ones, and writes the spans to
//! `benchmark/out/<workload>-seed<N>.trace.json`. Scale, threads, cache
//! size and repeat counts are constants of each workload, not flags.
//! The process exits 1 when any check failed and 2 on a usage error.

mod digests;
mod measure;
mod repro;
mod serve;
mod spans;
mod whatif;

use measure::{median, tail, tail_percentile, HighWater, Metric};
use sc_workload::{Trace, WorkloadSpec};
use spans::{Span, Tracer};
use std::time::Instant;

#[global_allocator]
static HEAP: measure::CountingAlloc = measure::CountingAlloc;

pub const WORKLOADS: [&str; 3] = ["repro_full", "whatif_growth", "serve_churn"];

/// The sc-par thread budget and the serve executor's worker count.
pub const THREADS: usize = 2;

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    /// Runs `op(i, traced)` back to back until `seconds` have passed:
    /// at least once, and twice in a traced run, where every other
    /// operation is traced.
    pub fn repeat(&self, mut op: impl FnMut(u64, bool)) {
        let min_ops = if self.trace { 2 } else { 1 };
        let t0 = Instant::now();
        let mut i = 0;
        while i < min_ops || t0.elapsed().as_secs_f64() < self.seconds {
            op(i, self.trace && i % 2 == 1);
            i += 1;
        }
    }
}

/// The end-to-end measurements of a run, from its untraced operations.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    /// Latencies of the traced operations, kept apart.
    pub traced_op_ms: Vec<f64>,
    /// Wall time the untraced operations occupied, seconds.
    pub busy_s: f64,
    /// Live-heap high-water of the untimed warm-up.
    pub peak_heap_mib: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", median(&self.setup_s).unwrap_or(0.0), "s"),
            Metric::new("op_p50_ms", median(&self.op_ms).unwrap_or(0.0), "ms"),
            Metric::new("op_tail_ms", tail(&self.op_ms).unwrap_or(0.0), "ms"),
            Metric::new("throughput_per_s", self.op_ms.len() as f64 / self.busy_s.max(1e-9), "1/s"),
            Metric::new("peak_heap_mib", self.peak_heap_mib, "MiB"),
        ]
    }

    pub fn push_op(&mut self, traced: bool, ms: f64) {
        if traced { &mut self.traced_op_ms } else { &mut self.op_ms }.push(ms);
    }

    /// Times one batch operation and, when untraced, records its
    /// busy time too.
    pub fn measure<R>(&mut self, traced: bool, op: impl FnOnce() -> R) -> R {
        let (out, secs) = timed(op);
        self.push_op(traced, secs * 1e3);
        if !traced {
            self.busy_s += secs;
        }
        out
    }

    /// Says which percentile `op_tail_ms` is and over how many samples.
    pub fn describe_tail(&self) -> String {
        let n = self.op_ms.len();
        format!("op_tail_ms is p{} of {n} untraced operations", tail_percentile(n))
    }

    /// Traced median latency over untraced median, minus one.
    pub fn trace_overhead(&self) -> f64 {
        match (median(&self.traced_op_ms), median(&self.op_ms)) {
            (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
            _ => 0.0,
        }
    }
}

/// Memo-cache counters over the measured requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheCounts {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub evictions: u64,
}

/// The per-layer measurements of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub trace_gen_ms: f64,
    pub build_ms: f64,
    pub event_loop_ms: f64,
    pub events: u64,
    pub telemetry_ms: f64,
    pub core_self_ms: f64,
    pub op_self_ms: f64,
    pub cluster_rss_mib: f64,
    pub core_rss_mib: f64,
    pub cache: CacheCounts,
    /// Median latency of traced requests the cache hit, and missed.
    pub hit_p50_ms: f64,
    pub miss_p50_ms: f64,
    pub trace_overhead: f64,
}

impl Layers {
    /// The span-derived fields. A time is the median, over the root
    /// spans (set-ups and operations) that reach the layer, of the
    /// layer's self time within each, and 0 where the workload never
    /// calls the layer; a memory figure is the largest per-call
    /// high-water.
    pub fn from_spans(tr: &Tracer) -> Layers {
        let ms =
            |pick: &dyn Fn(&Span) -> bool| median(&tr.self_per_root(pick)).map_or(0.0, |s| s * 1e3);
        Layers {
            trace_gen_ms: ms(&|s| s.name == "workload.trace_gen"),
            build_ms: ms(&|s| s.name == "serve.build"),
            event_loop_ms: ms(&|s| s.name == "cluster.event_loop"),
            telemetry_ms: ms(&|s| s.name == "telemetry.synthesis"),
            core_self_ms: ms(&|s| s.name.starts_with("core.")),
            op_self_ms: ms(&|s| s.name == "op"),
            cluster_rss_mib: tr.max_rss_mib(replays).unwrap_or(0.0),
            core_rss_mib: tr
                .max_rss_mib(|s| s.name == "core.analysis" || s.name == "core.render")
                .unwrap_or(0.0),
            ..Layers::default()
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.cache;
        vec![
            Metric::new("workload.trace_gen_ms", self.trace_gen_ms, "ms"),
            Metric::new("serve.build_ms", self.build_ms, "ms"),
            Metric::new("cluster.event_loop_ms", self.event_loop_ms, "ms"),
            Metric::new("cluster.events", self.events as f64, "count"),
            Metric::new(
                "cluster.us_per_event",
                self.event_loop_ms * 1e3 / (self.events.max(1) as f64),
                "us",
            ),
            Metric::new("cluster.rss_mib", self.cluster_rss_mib, "MiB"),
            Metric::new("telemetry.ms", self.telemetry_ms, "ms"),
            Metric::new("core.self_ms", self.core_self_ms, "ms"),
            Metric::new("core.rss_mib", self.core_rss_mib, "MiB"),
            Metric::new("op.self_ms", self.op_self_ms, "ms"),
            Metric::new("cache.hits", c.hits as f64, "count"),
            Metric::new("cache.misses", c.misses as f64, "count"),
            Metric::new("cache.coalesced", c.coalesced as f64, "count"),
            Metric::new("cache.evictions", c.evictions as f64, "count"),
            Metric::new(
                "cache.hit_ratio",
                (c.hits + c.coalesced) as f64 / (c.requests.max(1) as f64),
                "fraction",
            ),
            Metric::new("serve.hit_p50_ms", self.hit_p50_ms, "ms"),
            Metric::new("serve.miss_p50_ms", self.miss_p50_ms, "ms"),
            Metric::new("bench.trace_overhead", self.trace_overhead, "fraction"),
        ]
    }
}

/// Spans of calls that replay a trace through the cluster simulator.
fn replays(s: &Span) -> bool {
    s.name == "cluster.run_timed"
        || s.name == "serve.build"
        || s.name.starts_with("core.reliability.")
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations whose outputs were wrong.
    pub failed: u64,
    /// Run-level checks that failed: reference passes, digests.
    pub problems: Vec<String>,
    pub end_to_end: EndToEnd,
    /// Present in a traced run.
    pub layers: Option<Layers>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Records the digest verdict for `workload` at `seed`.
    pub fn check_digest(&mut self, workload: &str, seed: u64, digest: u64) {
        match digests::check(workload, seed, digest) {
            digests::Verdict::Match => eprintln!("digest {digest:016x}: matches the table"),
            digests::Verdict::Unchecked => {
                eprintln!("digest {digest:016x}: unchecked (seed {seed} has no table entry)")
            }
            digests::Verdict::Mismatch { expected } => self
                .problems
                .push(format!("digest {digest:016x} differs from the table's {expected:016x}")),
        }
    }

    /// Fills the per-layer metrics of a traced run from `tracer` and
    /// `fill`, and keeps the spans for export.
    pub fn finish_trace(&mut self, tracer: Tracer, fill: impl FnOnce(&mut Layers)) {
        let mut layers = Layers::from_spans(&tracer);
        layers.trace_overhead = self.end_to_end.trace_overhead();
        fill(&mut layers);
        self.layers = Some(layers);
        self.tracer = Some(tracer);
    }
}

/// Generates the trace of operation `input`'s set-up, recording the
/// time it took in `setup_s`.
pub fn set_up_trace(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    seed: u64,
    input: u64,
    setup_s: &mut Vec<f64>,
) -> Trace {
    let root = tr.open("setup", input, false);
    let (trace, secs) =
        timed(|| tr.time("workload.trace_gen", input, false, || Trace::generate(spec, seed)));
    tr.close(root);
    setup_s.push(secs);
    trace
}

/// `f`'s result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

const USAGE: &str = "usage: benchmark --workload repro_full|whatif_growth|serve_churn \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<(String, Run), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok((workload, Run { seed, seconds, trace }))
}

fn run_workload(workload: &str, run: &Run) -> Outcome {
    match workload {
        "repro_full" => repro::run(&repro::FULL, run),
        "whatif_growth" => whatif::run(&whatif::FULL, run),
        "serve_churn" => serve::run(&serve::FULL, run),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

/// The JSON result line.
fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "{workload}: seed {} seconds {} trace {} threads {THREADS} nproc {nproc}",
        run.seed, run.seconds, run.trace as u8
    );
    if !HighWater::new().reset() {
        eprintln!("clear_refs is not writable: memory figures are lifetime peaks");
    }
    let mut outcome = run_workload(&workload, &run);

    let end_to_end = outcome.end_to_end.metrics();
    eprintln!("{}", outcome.end_to_end.describe_tail());
    let mut metrics = match &outcome.layers {
        Some(layers) => {
            for m in &end_to_end {
                eprintln!("untraced operations: {} {} {}", m.name, m.value, m.unit);
            }
            layers.metrics()
        }
        None => end_to_end,
    };
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        outcome.problems.push(format!("{} is not a finite number", m.name));
        m.value = 0.0;
    }
    if let Some(tracer) = &outcome.tracer {
        let dir = std::path::Path::new("benchmark/out");
        let path = dir.join(format!("{workload}-seed{}.trace.json", run.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(&workload)))
        {
            Ok(()) => eprintln!("wrote {} ({} spans)", path.display(), tracer.spans().len()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&outcome, &metrics));
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let (w, run) =
            parse_args(&args("--workload serve_churn --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, "serve_churn");
        assert_eq!((run.seed, run.seconds, run.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1",
            "--workload repro_full --seed x --seconds 1",
            "--workload repro_full --seed 1 --seconds 0",
            "--workload repro_full --seed 1 --seconds 1 --trace 2",
            "--workload repro_full --seed 1 --seconds",
            "--workload repro_full --seconds 1",
            "--bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let outcome = Outcome { attempted: 3, ..Outcome::default() };
        let line = result_json(&outcome, &[Metric::new("op_p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    /// Names declared in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect()
    }

    #[test]
    fn declared_workloads_match() {
        assert_eq!(declared("workloads"), WORKLOADS.to_vec());
    }

    /// Runs every workload body at a tiny scale, untraced and traced,
    /// and checks that each passes its checks and prints exactly the
    /// metrics `BENCHMARK.json` declares.
    #[test]
    fn every_workload_prints_every_declared_metric() {
        for trace in [false, true] {
            let run = Run { seed: 3, seconds: 0.01, trace };
            for (name, outcome) in [
                ("repro_full", repro::run(&repro::TINY, &run)),
                ("whatif_growth", whatif::run(&whatif::TINY, &run)),
                ("serve_churn", serve::run(&serve::TINY, &run)),
            ] {
                assert!(outcome.correct(), "{name}: {:?}", outcome.problems);
                assert!(outcome.attempted >= 1, "{name}");
                let (metrics, section) = match &outcome.layers {
                    Some(layers) => (layers.metrics(), "per_layer"),
                    None => (outcome.end_to_end.metrics(), "end_to_end"),
                };
                assert_eq!(trace, section == "per_layer", "{name}");
                let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, declared(section), "{name} trace={trace}");
                assert!(metrics.iter().all(|m| m.value.is_finite()), "{name}: {metrics:?}");
                if !trace {
                    assert!(metrics.iter().all(|m| m.value > 0.0), "{name}: {metrics:?}");
                }
            }
        }
    }
}

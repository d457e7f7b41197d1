//! Seeded load generator for the `sc-serve` query service.
//!
//! ```text
//! serve_load [--scenario NAME|FILE] [--scale F] [--seed N] [--threads N]
//!            [--requests N] [--out BENCH_serve.json] [--trace FILE]
//! ```
//!
//! Builds one frozen-world [`Service`], then drives four seeded request
//! mixes through it in a fixed order (`point_flood`, `cold_ab`,
//! `cache_storm`, `steady`; the README's "Query service" section
//! describes each) and one uncached pass over the storm surface. The
//! storm speedup is the ratio of the storm's and the cold pass's
//! median throughputs over 15 passes each, both served on the calling
//! thread; the `cache_storm` mix's own throughput and tail gate the
//! executor. Every response body folds into one FNV-1a
//! digest once, in submission order, so the digest depends only on the
//! scenario, the seed and the query streams, never on thread budget,
//! cache state or interleaving. The JSON report prints to stdout and
//! also lands in `--out`; `--trace FILE` writes per-query wall-clock
//! spans as a Chrome trace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_bench::peak_rss_bytes;
use sc_obs::json;
use sc_serve::{Digest, Pending, Query, ServeConfig, Service};
use sc_stats::percentile;
use sc_workload::WorkloadSpec;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    scenario: sc_scenario::Scenario,
    scale: f64,
    seed: u64,
    threads: Option<usize>,
    requests: usize,
    cache_capacity: usize,
    out: Option<String>,
    trace: Option<String>,
}

const USAGE: &str = "usage: serve_load [--scenario NAME|FILE] [--scale F] [--seed N]
                  [--threads N] [--requests N] [--out FILE] [--trace FILE]

  --scenario S   build the world from a scenario preset or TOML file
                 (presets: supercloud|philly|nersc|in2p3; default
                 supercloud). The parsed scenario's hash becomes a
                 cache-key dimension and the report's scenario label,
                 so digests from different scenario files never
                 compare equal.
  --scale F      scale the simulated workload by F, above 0 and at
                 most 100 (default 0.02)
  --seed N       master RNG seed for the world and the query streams
                 (default 42)
  --threads N    executor worker threads, 1 to 1024 (default:
                 SC_PAR_THREADS or all cores)
  --requests N   requests per flood mix (default 200; the cold what-if
                 mix always runs its 6 queries once each)
  --cache-capacity N
                 memo-cache bound, landed responses (default 256;
                 0 = unbounded). Overflow evicts by the deterministic
                 second-chance sweep and the report counts evictions.
  --out FILE     also write the JSON report to FILE
  --trace FILE   record per-query wall-clock spans and write them as a
                 Chrome trace (chrome://tracing / Perfetto)";

fn usage_error(msg: &str) -> ! {
    eprintln!("serve_load: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("serve_load: {msg}");
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut args = Args {
        scenario: sc_scenario::Scenario::default(),
        scale: 0.02,
        seed: 42,
        threads: None,
        requests: 200,
        cache_capacity: 256,
        out: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| usage_error(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--scenario" => {
                let spec = value("--scenario");
                args.scenario = sc_scenario::Scenario::load(&spec)
                    .unwrap_or_else(|e| usage_error(&format!("--scenario {spec}: {e}")));
            }
            "--scale" => {
                let factor = value("--scale")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--scale needs a number"));
                args.scale = WorkloadSpec::check_scale(factor)
                    .unwrap_or_else(|e| usage_error(&format!("--scale {e}")));
            }
            "--seed" => {
                args.seed =
                    value("--seed").parse().unwrap_or_else(|_| usage_error("--seed needs a u64"));
            }
            "--threads" => {
                args.threads = Some(
                    sc_par::parse_thread_budget(&value("--threads"))
                        .unwrap_or_else(|e| usage_error(&format!("--threads {e}"))),
                );
            }
            "--requests" => {
                let n: usize = value("--requests")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--requests needs a count"));
                if n == 0 {
                    usage_error("--requests must be at least 1");
                }
                args.requests = n;
            }
            "--cache-capacity" => {
                args.cache_capacity = value("--cache-capacity")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--cache-capacity needs a count"));
            }
            "--out" => args.out = Some(value("--out")),
            "--trace" => args.trace = Some(value("--trace")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    args
}

/// Timed passes of the cache storm and of the cold baseline behind
/// `storm_speedup`, which divides their medians.
const SPEEDUP_REPS: usize = 15;

/// Submissions kept in flight at once. Deep enough to keep every worker
/// busy and to exercise coalescing, shallow enough that latency still
/// reflects service time rather than pure queueing.
const WINDOW: usize = 32;

/// One mix's measurements.
struct MixReport {
    name: &'static str,
    requests: usize,
    secs: f64,
    /// Completion latencies, milliseconds, unsorted.
    latencies_ms: Vec<f64>,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
}

impl MixReport {
    fn qps(&self) -> f64 {
        self.requests as f64 / self.secs.max(1e-9)
    }

    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / total as f64
    }

    fn pct(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
            .unwrap_or_else(|e| fail(&format!("latency percentile for {}: {e}", self.name)))
    }
}

/// Drives `queries` through the service with a bounded in-flight
/// window, joining in submission order so the digest fold order is
/// independent of which worker finishes first.
fn run_mix(
    svc: &Arc<Service>,
    name: &'static str,
    queries: &[Query],
    digest: &mut Digest,
) -> MixReport {
    let before = svc.cache_stats();
    let mut latencies_ms = Vec::with_capacity(queries.len());
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
    let join = |p: Pending, lat: &mut Vec<f64>, digest: &mut Digest| {
        let done = p.wait();
        digest.update(done.response.body.as_bytes());
        lat.push(done.latency.as_secs_f64() * 1e3);
    };
    let t0 = Instant::now();
    for q in queries {
        if inflight.len() == WINDOW {
            let oldest = inflight.pop_front().expect("non-empty window");
            join(oldest, &mut latencies_ms, digest);
        }
        inflight.push_back(svc.submit(*q));
    }
    for p in inflight {
        join(p, &mut latencies_ms, digest);
    }
    let secs = t0.elapsed().as_secs_f64();
    let delta = svc.cache_stats().since(&before);
    MixReport {
        name,
        requests: queries.len(),
        secs,
        latencies_ms,
        hits: delta.hits,
        misses: delta.misses,
        coalesced: delta.coalesced,
        evictions: delta.evictions,
    }
}

/// `n` seeded draws from `pool`.
fn random_stream(pool: &[Query], n: usize, rng: &mut StdRng) -> Vec<Query> {
    (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

/// The steady-state blend: 70% points, 25% figures, 5% what-ifs.
fn steady_stream(n: usize, rng: &mut StdRng) -> Vec<Query> {
    let points = Query::point_queries();
    let figures = Query::figure_queries();
    let what_ifs = Query::what_if_queries();
    (0..n)
        .map(|_| {
            let r: f64 = rng.gen();
            if r < 0.70 {
                points[rng.gen_range(0..points.len())]
            } else if r < 0.95 {
                figures[rng.gen_range(0..figures.len())]
            } else {
                what_ifs[rng.gen_range(0..what_ifs.len())]
            }
        })
        .collect()
}

/// The median of `samples`.
fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or_else(|e| fail(&format!("median of {samples:?}: {e}")))
}

/// Renders the report by hand, matching the repo's other bench JSONs:
/// four mixes and a handful of scalars do not warrant a serialization
/// dependency in a binary.
#[allow(clippy::too_many_arguments)]
fn report_json(
    args: &Args,
    scenario: &str,
    threads: usize,
    build_secs: f64,
    mixes: &[MixReport],
    cold_requests: usize,
    cold_secs: f64,
    storm_speedup: f64,
    digest_hex: &str,
) -> String {
    let num = json::number;
    let mix_rows: Vec<String> = mixes
        .iter()
        .map(|m| {
            format!(
                "    {}: {{ \"requests\": {}, \"secs\": {}, \"qps\": {}, \
                 \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \
                 \"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"evictions\": {}, \
                 \"hit_rate\": {} }}",
                json::string(m.name),
                m.requests,
                num(m.secs, Some(6)),
                num(m.qps(), Some(1)),
                num(m.pct(50.0), Some(4)),
                num(m.pct(95.0), Some(4)),
                num(m.pct(99.0), Some(4)),
                m.hits,
                m.misses,
                m.coalesced,
                m.evictions,
                num(m.hit_rate(), Some(4)),
            )
        })
        .collect();
    format!(
        "{{\n  \"scenario\": {},\n  \"threads\": {threads},\n  \"scale\": {},\n  \
         \"seed\": {},\n  \"requests_per_mix\": {},\n  \"build_secs\": {},\n  \
         \"mixes\": {{\n{}\n  }},\n  \
         \"cold_baseline\": {{ \"requests\": {cold_requests}, \"secs\": {}, \"qps\": {} }},\n  \
         \"storm_speedup\": {},\n  \"digest\": {},\n  \"peak_rss_bytes\": {}\n}}\n",
        json::string(scenario),
        num(args.scale, None),
        args.seed,
        args.requests,
        num(build_secs, Some(6)),
        mix_rows.join(",\n"),
        num(cold_secs, Some(6)),
        num(cold_requests as f64 / cold_secs.max(1e-9), Some(1)),
        num(storm_speedup, Some(1)),
        json::string(digest_hex),
        peak_rss_bytes(),
    )
}

fn main() {
    let args = parse_args();
    // --threads wins; SC_PAR_THREADS is the fallback so the binary
    // composes with the CI determinism matrix without extra flags.
    let requested = args.threads.or_else(|| {
        std::env::var("SC_PAR_THREADS").ok().and_then(|v| sc_par::parse_thread_budget(&v).ok())
    });
    if let Some(n) = requested {
        sc_par::set_max_threads(n);
    }
    let threads = sc_par::current_threads();
    eprintln!(
        "building scale-{} world (seed {}, {} worker threads) ...",
        args.scale, args.seed, threads
    );
    let svc = Arc::new(Service::build(ServeConfig {
        scale: args.scale,
        seed: args.seed,
        threads,
        cache_capacity: args.cache_capacity,
        tracing: args.trace.is_some(),
        scenario: args.scenario.clone(),
        ..ServeConfig::default()
    }));
    eprintln!("world frozen in {:.2}s; serving {}", svc.build_secs(), svc.scenario());

    let mut digest = Digest::new();
    let mut mixes = Vec::with_capacity(4);

    // Each mix draws from its own seeded stream, so adding a mix never
    // perturbs the others' query sequences.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0070_6f69_6e74); // "point"
    let flood = random_stream(&Query::point_queries(), args.requests, &mut rng);
    mixes.push(run_mix(&svc, "point_flood", &flood, &mut digest));
    eprintln!("point_flood: {:.0} req/s", mixes[mixes.len() - 1].qps());

    let what_ifs = Query::what_if_queries();
    mixes.push(run_mix(&svc, "cold_ab", &what_ifs, &mut digest));
    eprintln!("cold_ab: p99 {:.0} ms", mixes[mixes.len() - 1].pct(99.0));

    // Warm the whole cheap surface (blocking, excluded from latency and
    // digest: the storm re-serves every one of these bodies), then
    // hammer it.
    let surface: Vec<Query> =
        Query::point_queries().into_iter().chain(Query::figure_queries()).collect();
    for q in &surface {
        svc.query_blocking(q);
    }
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0073_746f_726d); // "storm"
    let storm = random_stream(&surface, args.requests * 2, &mut rng);
    mixes.push(run_mix(&svc, "cache_storm", &storm, &mut digest));
    eprintln!("cache_storm: {:.0} req/s", mixes[mixes.len() - 1].qps());

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7374_6561_6479); // "steady"
    let steady = steady_stream(args.requests, &mut rng);
    mixes.push(run_mix(&svc, "steady", &steady, &mut digest));
    eprintln!("steady: {:.0} req/s", mixes[mixes.len() - 1].qps());

    // Cold-compute baseline: the storm surface once each, bypassing the
    // cache. Folded into the digest too — a cold render that diverged
    // from its cached twin must fail the cross-run comparison.
    let cold_pass = |digest: &mut Digest| {
        let t0 = Instant::now();
        for q in &surface {
            digest.update(svc.query_uncached(q).as_bytes());
        }
        t0.elapsed().as_secs_f64()
    };
    let mut cold_secs = vec![cold_pass(&mut digest)];
    // The speedup's storm side: the same storm, served on this thread
    // through the cache like the cold pass beside it, so a contended
    // host slows both sides alike instead of only the executor handoff.
    let storm_pass = |digest: &mut Digest| {
        let t0 = Instant::now();
        for q in &storm {
            digest.update(svc.query_blocking(q).body.as_bytes());
        }
        t0.elapsed().as_secs_f64()
    };
    // At smoke scale a storm and a cold pass each take milliseconds, so
    // one timing of either swings with host scheduling. Repeat both in
    // turn, so a noisy stretch slows both sides, and divide the medians.
    // Every body is already in the digest; the repeats fold into a
    // discarded one.
    let mut discard = Digest::new();
    let mut storm_secs = vec![storm_pass(&mut discard)];
    for _ in 1..SPEEDUP_REPS {
        storm_secs.push(storm_pass(&mut discard));
        cold_secs.push(cold_pass(&mut discard));
    }
    let cold_secs = median(&cold_secs);
    let cold_qps = surface.len() as f64 / cold_secs.max(1e-9);
    let storm_qps = storm.len() as f64 / median(&storm_secs).max(1e-9);
    let storm_speedup = storm_qps / cold_qps.max(1e-9);
    eprintln!("cold baseline: {cold_qps:.1} req/s (storm speedup {storm_speedup:.0}x)");

    let json = report_json(
        &args,
        svc.scenario(),
        threads,
        svc.build_secs(),
        &mixes,
        surface.len(),
        cold_secs,
        storm_speedup,
        &digest.hex(),
    );
    print!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, &json).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(path) = &args.trace {
        let trace = sc_obs::chrome_trace_json(&svc.stage_spans());
        std::fs::write(path, trace).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

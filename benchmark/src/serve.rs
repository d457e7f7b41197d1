//! `serve_churn`: the query service under a cache smaller than its
//! working set.
//!
//! Set-up is `Service::build` on a scale-0.1 world with a 16-entry
//! memo cache. The world is the service's deployment rather than its
//! input, so it is always built from seed 42; `--seed` drives the
//! request stream. One operation is one request in a closed loop: a
//! single client keeps 2 requests outstanding on the 2-worker executor,
//! each a seeded uniform draw over the 30 point and figure queries, the
//! way `serve_load`'s `cache_storm` mix draws them. With 16 slots for
//! 30 queries most requests recompute and evict, so this is the
//! workload where figure computation in sc-core and the cache set the
//! pace.
//!
//! An untimed warm-up builds the service that serves the run, captures
//! every query's `query_uncached` body as the reference, and sends the
//! first requests. `peak_heap_mib` is the heap the built world holds
//! plus the high-water of the heap the reference and warm-up requests
//! add: what the service needs while it serves. The measuring
//! window then alternates a timed `Service::build`, whose service is
//! dropped, with a few seconds of requests, so that set-up is sampled
//! across the whole window as requests are. Every response must equal
//! its reference body, and none may be an `ERROR` body.
//!
//! A traced run sends every other request to a second service built
//! with `ServeConfig::tracing`, whose compute spans split each miss's
//! latency into computation and waiting.

use crate::measure::{heap_window, median, HighWater, SplitMix64};
use crate::spans::Tracer;
use crate::{timed, CacheCounts, Outcome, Run, THREADS};
use sc_par::CacheOutcome;
use sc_serve::{Completed, Digest, Pending, Query, ServeConfig, Service};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Seconds of requests between two timed set-ups.
const PHASE_S: f64 = 2.0;

/// Requests the warm-up sends before anything is timed. Its heap peaks
/// where the computes of the two requests in flight overlap most,
/// which is left to chance: after 300 requests the peak ranged from
/// 9.1 to 10.9 MiB over 20 runs, after 1,500 from 10.05 to 10.17 over 12.
const WARM_UP_REQUESTS: u64 = 1_500;

#[derive(Debug)]
pub struct Config {
    pub scale: f64,
    pub world_seed: u64,
    pub cache_capacity: usize,
    /// Requests the client keeps in flight.
    pub outstanding: usize,
}

pub const FULL: Config = Config { scale: 0.1, world_seed: 42, cache_capacity: 16, outstanding: 2 };

#[cfg(test)]
pub const TINY: Config = Config { scale: 0.01, world_seed: 3, cache_capacity: 16, outstanding: 2 };

fn serve_config(cfg: &Config, tracing: bool) -> ServeConfig {
    ServeConfig {
        scale: cfg.scale,
        seed: cfg.world_seed,
        threads: THREADS,
        cache: true,
        cache_capacity: cfg.cache_capacity,
        tracing,
        ..ServeConfig::default()
    }
}

/// A request the client has sent.
#[derive(Debug, Clone, Copy)]
struct Sent {
    query: usize,
    traced: bool,
    id: u64,
    at: Instant,
}

/// The closed-loop client: a seeded uniform request stream and the
/// requests it has in flight.
struct Client {
    rng: SplitMix64,
    inflight: VecDeque<(Pending, Sent)>,
    sent: u64,
}

impl Client {
    fn new(seed: u64) -> Client {
        Client { rng: SplitMix64::new(seed), inflight: VecDeque::new(), sent: 0 }
    }

    /// Keeps `outstanding` requests in flight while `more(sent)` holds,
    /// then joins the rest. Every other request goes to `traced_svc`
    /// when there is one. Hands each joined request to `done`, in the
    /// order sent.
    fn serve(
        &mut self,
        outstanding: usize,
        surface: &[Query],
        svc: &Arc<Service>,
        traced_svc: Option<&Arc<Service>>,
        mut more: impl FnMut(u64) -> bool,
        mut done: impl FnMut(Sent, Completed),
    ) {
        loop {
            while self.inflight.len() < outstanding && more(self.sent) {
                let query = self.rng.below(surface.len());
                let (target, traced) = match traced_svc {
                    Some(t) if self.sent % 2 == 1 => (t, true),
                    _ => (svc, false),
                };
                let sent = Sent { query, traced, id: self.sent, at: Instant::now() };
                self.inflight.push_back((target.submit(surface[query]), sent));
                self.sent += 1;
            }
            let Some((pending, sent)) = self.inflight.pop_front() else { return };
            done(sent, pending.wait());
        }
    }
}

/// Whether a response is its query's reference body.
fn correct(done: &Completed, reference: &str) -> bool {
    let body = &done.response.body;
    !body.starts_with("ERROR") && **body == *reference
}

pub fn run(cfg: &Config, run: &Run) -> Outcome {
    sc_par::set_max_threads(THREADS);
    let mut outcome = Outcome::default();
    let mut tracer = if run.trace { Tracer::new(HighWater::new()) } else { Tracer::off() };
    let surface: Vec<Query> =
        Query::point_queries().into_iter().chain(Query::figure_queries()).collect();
    let mut client = Client::new(run.seed ^ 0x7365_7276_655f_6368);

    // The build's own peak is the telemetry pipeline `repro_full`
    // measures, and its height depends on how the pipeline's two
    // threads interleave (one build in about seven peaked 12 MiB lower),
    // so only the world it leaves behind counts here.
    let (svc, built) = heap_window(|| Arc::new(Service::build(serve_config(cfg, false))));
    let ((reference, warm_up_wrong), serving) = heap_window(|| {
        let reference: Vec<Arc<String>> = surface.iter().map(|q| svc.query_uncached(q)).collect();
        let mut wrong = 0;
        client.serve(
            cfg.outstanding,
            &surface,
            &svc,
            None,
            |sent| sent < WARM_UP_REQUESTS,
            |s, done| wrong += u64::from(!correct(&done, &reference[s.query])),
        );
        (reference, wrong)
    });
    outcome.end_to_end.peak_heap_mib = built.held_mib + serving.peak_mib;
    if warm_up_wrong > 0 {
        outcome.problems.push(format!("{warm_up_wrong} warm-up responses were wrong"));
    }
    let mut digest = Digest::new();
    for body in &reference {
        digest.update(body.as_bytes());
    }
    outcome.check_digest("serve_churn", cfg.world_seed, digest.finish());

    let traced_svc = run.trace.then(|| Arc::new(Service::build(serve_config(cfg, true))));
    // Traced requests in join order: (query, outcome, span, end).
    let mut traced_log: Vec<(usize, CacheOutcome, usize, f64)> = Vec::new();
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    // A traced run needs an untraced and a traced request at least.
    let min_sent = client.sent + if run.trace { 2 } else { 1 };
    let mut busy_s = 0.0;
    let t0 = Instant::now();
    for rep in 0.. {
        let root = tracer.open("setup", rep, false);
        let (built, secs) = timed(|| {
            tracer.time("serve.build", rep, true, || Service::build(serve_config(cfg, false)))
        });
        tracer.close(root);
        outcome.end_to_end.setup_s.push(secs);
        drop(built);

        let phase_end = (t0.elapsed().as_secs_f64() + PHASE_S).min(run.seconds);
        let phase_start = Instant::now();
        client.serve(
            cfg.outstanding,
            &surface,
            &svc,
            traced_svc.as_ref(),
            |sent| sent < min_sent || t0.elapsed().as_secs_f64() < phase_end,
            |s, done| {
                let ms = done.latency.as_secs_f64() * 1e3;
                outcome.end_to_end.push_op(s.traced, ms);
                outcome.attempted += 1;
                outcome.failed += u64::from(!correct(&done, &reference[s.query]));
                if s.traced {
                    let start = tracer.at(s.at);
                    let end = start + ms / 1e3;
                    let lane = (s.id % cfg.outstanding as u64) as u32;
                    let span = tracer.record("op", None, s.id, lane, start, end);
                    traced_log.push((s.query, done.response.outcome, span, end));
                    match done.response.outcome {
                        CacheOutcome::Hit => hit_ms.push(ms),
                        CacheOutcome::Miss => miss_ms.push(ms),
                        CacheOutcome::Coalesced => {}
                    }
                }
            },
        );
        busy_s += phase_start.elapsed().as_secs_f64();
        if t0.elapsed().as_secs_f64() >= run.seconds {
            break;
        }
    }
    let (untraced, traced) =
        (outcome.end_to_end.op_ms.len(), outcome.end_to_end.traced_op_ms.len());
    outcome.end_to_end.busy_s = busy_s * untraced as f64 / (untraced + traced) as f64;
    let stats = svc.cache_stats();
    eprintln!(
        "{} requests ({traced} traced) in {busy_s:.3} s between {} set-ups; untraced service, \
         warm-up included: {} hits, {} misses, {} coalesced, {} evictions",
        untraced + traced,
        outcome.end_to_end.setup_s.len(),
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.evictions
    );

    if let Some(traced_svc) = traced_svc {
        // A query computes at most once at a time (single flight), so
        // its compute spans and its misses line up in order.
        let mut computes: HashMap<String, VecDeque<f64>> = HashMap::new();
        for s in traced_svc.stage_spans() {
            computes.entry(s.name).or_default().push_back(s.dur_secs);
        }
        for &(query, how, span, end) in &traced_log {
            if how != CacheOutcome::Miss {
                continue;
            }
            let name = format!("query:{}", surface[query].token());
            match computes.get_mut(&name).and_then(VecDeque::pop_front) {
                Some(dur) => {
                    let (request, lane) = (tracer.spans()[span].request, tracer.spans()[span].lane);
                    tracer.record("core.compute", Some(span), request, lane, end - dur, end);
                }
                None => outcome.problems.push(format!("no compute span for a miss on {name}")),
            }
        }
        let c = traced_svc.cache_stats();
        outcome.finish_trace(tracer, |l| {
            l.cache = CacheCounts {
                requests: c.total(),
                hits: c.hits,
                misses: c.misses,
                coalesced: c.coalesced,
                evictions: c.evictions,
            };
            l.hit_p50_ms = median(&hit_ms).unwrap_or(0.0);
            l.miss_p50_ms = median(&miss_ms).unwrap_or(0.0);
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_client_keeps_its_requests_in_flight_and_joins_them_in_order() {
        let svc = Arc::new(Service::build(serve_config(&TINY, false)));
        let surface: Vec<Query> = Query::point_queries();
        let mut client = Client::new(5);
        let mut ids = Vec::new();
        client.serve(
            2,
            &surface,
            &svc,
            None,
            |sent| sent < 7,
            |s, done| {
                assert!(!done.response.body.is_empty());
                ids.push(s.id);
            },
        );
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
        assert!(client.inflight.is_empty());
        let mut again = Client::new(5);
        let first: Vec<usize> = (0..7).map(|_| again.rng.below(surface.len())).collect();
        let mut same = Client::new(5);
        let mut drawn = Vec::new();
        same.serve(2, &surface, &svc, None, |sent| sent < 7, |s, _| drawn.push(s.query));
        assert_eq!(drawn, first, "the request stream is the seed's");
    }
}

//! The long-running query service over one frozen simulated world.
//!
//! [`Service::build`] pays the simulation cost exactly once, then the
//! world — trace, configuration, [`SimOutput`] and the per-user
//! statistics of its dataset — is immutable for the service's lifetime.
//! The dataset holds every GPU job's job-level aggregates, `build`
//! computes the user statistics, and the executor's pool builds the
//! world's job views once and shares them across its workers, so a point
//! or figure miss on the pool computes only its own statistic. Every
//! response is a pure render of that frozen state, so a response's bytes
//! depend only on `(scenario, seed, query)`: cache state, request
//! interleaving, and the executor's thread budget can change *when* a
//! response is ready, never *what* it says. That is the whole
//! determinism contract, inherited rather than re-proved.
//!
//! Requests flow through two layers from [`crate::Query`] to bytes:
//!
//! - a [`sc_par::MemoCache`] keyed on [`QueryKey`] with single-flight
//!   dedup — concurrent identical queries coalesce onto one
//!   computation;
//! - a [`sc_par::Executor`] (one FIFO queue, fixed thread budget) that
//!   runs [`Service::submit`] requests in submission order;
//!   [`Pending::wait`] joins one.
//!   Its body runs on an owner thread: it builds `gpu_views` over the
//!   shared `Arc<SimOutput>` once, before `build` returns, and its
//!   workers — scoped threads of that body — answer every request from
//!   that one [`Inputs`]. The calling-thread paths,
//!   [`Service::query_blocking`] and [`Service::query_uncached`], have
//!   no share of those views and build their own when they compute.
//!
//! Failures are served in-band: a query whose computation cannot
//! proceed (e.g. a figure over an empty population) returns a
//! deterministic `ERROR …` body rather than an `Err`, so error
//! responses memoize and coalesce exactly like successes.

use crate::query::{Query, RelQuery};
use sc_cluster::{SimConfig, SimOutput, Simulation};
use sc_core::{gpu_views, user_stats, DataQualityFig, Inputs, QueryKey, UserStats};
use sc_obs::stagelog::StageSpan;
use sc_obs::{Obs, StageLog};
use sc_par::{CacheOutcome, CacheStats, Executor, MemoCache, Workers};
use sc_policy::PolicyExperiment;
use sc_scenario::Scenario;
use sc_workload::Trace;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How a [`Service`] builds its world and runs its request plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Workload scale factor (1.0 = the paper's 125-day trace).
    pub scale: f64,
    /// Master RNG seed for trace generation and fault injection.
    pub seed: u64,
    /// Executor worker threads; 0 means [`sc_par::current_threads`].
    pub threads: usize,
    /// Memoize responses. Off serves every request cold — only useful
    /// for baselines and cache-off comparisons.
    pub cache: bool,
    /// Landed-response bound for the memo cache, held exactly; 0 means
    /// unbounded (the pre-eviction behavior). Overflow evicts by the
    /// cache's deterministic second-chance sweep; an evicted response
    /// simply recomputes to the same bytes on its next request.
    pub cache_capacity: usize,
    /// Minimum user population, whatever the scale. User-level figures
    /// (10–12, 17) degenerate below a few dozen users.
    pub users_floor: usize,
    /// Record a wall-clock stage span per computed response (feeds the
    /// Chrome trace exporter; off keeps the hot path allocation-free).
    pub tracing: bool,
    /// The world to build: cluster, workload, arrivals, failures and
    /// the reliability grid (the `supercloud` preset by default). Its
    /// parsed hash becomes a cache-key dimension, so two services built
    /// from different scenario files never share memoized bytes even
    /// when their names collide.
    pub scenario: Scenario,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            scale: 0.02,
            seed: 42,
            threads: 0,
            cache: true,
            cache_capacity: 256,
            users_floor: 64,
            tracing: false,
            scenario: Scenario::default(),
        }
    }
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct Response {
    /// The rendered body. Shared, not copied: a cache hit and the miss
    /// that filled it hold the same allocation.
    pub body: Arc<String>,
    /// How the cache satisfied this request.
    pub outcome: CacheOutcome,
}

/// A submitted request that has not been joined yet.
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<(Response, Instant)>,
    submitted: Instant,
}

impl Pending {
    /// Blocks until the worker finishes this request.
    ///
    /// # Panics
    ///
    /// Panics if the computing closure panicked on a worker thread —
    /// the request can never complete, and the panic already poisoned
    /// the cache flight.
    pub fn wait(self) -> Completed {
        let (response, done) = self.rx.recv().expect("request worker dropped its response");
        Completed { response, latency: done.duration_since(self.submitted) }
    }
}

/// A joined request: the response plus its submit-to-finish latency.
#[derive(Debug, Clone)]
pub struct Completed {
    /// The answered query.
    pub response: Response,
    /// Wall-clock time from [`Service::submit`] to worker completion —
    /// queueing included, which is the latency a client observes.
    pub latency: Duration,
}

/// The query service: one frozen world, a memoizing cache, and a FIFO
/// request executor.
pub struct Service {
    config: ServeConfig,
    scenario: String,
    trace: Trace,
    sim_config: SimConfig,
    /// The frozen world, shared with the executor's body.
    out: Arc<SimOutput>,
    /// `user_stats(&gpu_views(&out.dataset))`, for the user figures;
    /// shared with the executor's body.
    users: Arc<[UserStats]>,
    cache: MemoCache<QueryKey, String>,
    exec: Executor<Request>,
    stage_log: StageLog,
    build_secs: f64,
}

/// A submitted request, as a pool worker receives it. It holds the
/// service alive until the response is sent.
struct Request {
    svc: Arc<Service>,
    query: Query,
    reply: mpsc::SyncSender<(Response, Instant)>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("scenario", &self.scenario)
            .field("seed", &self.config.seed)
            .field("threads", &self.exec.threads())
            .field("cache", &self.cache.len())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Runs the simulation once and freezes it behind the query plane.
    ///
    /// This is the only expensive constructor in the crate: everything
    /// after it is a render (or a policy/data-quality replay) of the
    /// state built here.
    pub fn build(config: ServeConfig) -> Service {
        let t0 = Instant::now();
        // The same spec and sim config `repro_figures` builds from the
        // scenario, so a served figure matches the batch tool's at equal
        // scale and seed.
        let sc = &config.scenario;
        let mut spec = sc.scaled_spec(config.scale);
        let sim_config = sc.sim_config(config.scale, config.seed);
        let scenario = format!("{}#{:016x}:s{}", sc.name, sc.hash(), config.scale);
        spec.users = spec.users.max(config.users_floor);
        let trace = Trace::generate(&spec, config.seed);
        let out = Arc::new(Simulation::new(sim_config.clone()).run(&trace));
        let users: Arc<[UserStats]> = user_stats(&gpu_views(&out.dataset)).into();
        let threads = if config.threads == 0 { sc_par::current_threads() } else { config.threads };
        let exec = Executor::with_body(threads, {
            let (out, users) = (Arc::clone(&out), Arc::clone(&users));
            move |workers: Workers<Request>| {
                let views = gpu_views(&out.dataset);
                let inputs =
                    Inputs { dataset: &out.dataset, views: &views, users: &users, sim: Some(&out) };
                workers.run(|Request { svc, query, reply }| {
                    let response = svc.answer(&query, || svc.compute_traced(&query, &inputs));
                    // Stamp completion on the worker so `wait` measures
                    // service latency, not how late the client got
                    // around to joining.
                    let _ = reply.send((response, Instant::now()));
                });
            }
        });
        Service {
            scenario,
            trace,
            sim_config,
            out,
            users,
            cache: MemoCache::with_capacity(config.cache_capacity),
            exec,
            stage_log: StageLog::new(),
            build_secs: t0.elapsed().as_secs_f64(),
            config,
        }
    }

    /// Scenario descriptor: `<name>#<hash>:s<scale>`, the scenario's
    /// name and content hash plus the world's scale.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The seed the world was generated from.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Executor worker-thread count.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Wall-clock cost of [`Service::build`], seconds.
    pub fn build_secs(&self) -> f64 {
        self.build_secs
    }

    /// The frozen simulation output queries are answered from.
    pub fn sim_output(&self) -> &SimOutput {
        &self.out
    }

    /// The cache key addressing `q` on this service's world.
    pub fn key(&self, q: &Query) -> QueryKey {
        QueryKey { scenario: self.scenario.clone(), seed: self.config.seed, query: q.token() }
    }

    /// Request counters: hits, misses, coalesced waits and evictions,
    /// as the cache saw them (all zero with the cache off).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Wall-clock spans recorded so far (empty unless
    /// [`ServeConfig::tracing`] is on); feeds
    /// [`sc_obs::chrome_trace_json`].
    pub fn stage_spans(&self) -> Vec<StageSpan> {
        self.stage_log.spans()
    }

    /// Answers `q` on the calling thread, through the cache. A miss
    /// builds the job views it reads.
    pub fn query_blocking(&self, q: &Query) -> Response {
        self.answer(q, || self.compute_here(q))
    }

    /// Answers `q` without consulting or filling the cache — the
    /// cold-compute baseline the cache's speedup is measured against.
    /// Builds the job views it reads, and does not touch the request
    /// counters.
    pub fn query_uncached(&self, q: &Query) -> Arc<String> {
        Arc::new(self.compute_here(q))
    }

    /// Enqueues `q` on the executor; join with [`Pending::wait`]. A miss
    /// reads the pool's shared job views.
    ///
    /// Needs `Arc<Service>` because the worker must hold the service
    /// alive until the response is sent.
    pub fn submit(self: &Arc<Service>, q: Query) -> Pending {
        let (reply, rx) = mpsc::sync_channel(1);
        let submitted = Instant::now();
        self.exec.spawn(Request { svc: Arc::clone(self), query: q, reply });
        Pending { rx, submitted }
    }

    /// Answers `q` through the cache when it is on, computing a miss
    /// with `compute`.
    fn answer(&self, q: &Query, compute: impl FnOnce() -> String) -> Response {
        if !self.config.cache {
            return Response { body: Arc::new(compute()), outcome: CacheOutcome::Miss };
        }
        let (body, outcome) = self.cache.get_or_compute(self.key(q), compute);
        Response { body, outcome }
    }

    /// Computes `q` off the pool, from job views built for this call.
    fn compute_here(&self, q: &Query) -> String {
        let views = gpu_views(&self.out.dataset);
        let inputs = Inputs {
            dataset: &self.out.dataset,
            views: &views,
            users: &self.users,
            sim: Some(&self.out),
        };
        self.compute_traced(q, &inputs)
    }

    fn compute_traced(&self, q: &Query, inputs: &Inputs<'_>) -> String {
        if self.config.tracing {
            self.stage_log.time(&format!("query:{}", q.token()), || self.compute(q, inputs))
        } else {
            self.compute(q, inputs)
        }
    }

    fn compute(&self, q: &Query, inputs: &Inputs<'_>) -> String {
        match q {
            Query::Point(p) => match p.compute(inputs) {
                Ok(v) => format!("{} = {v:.6}\n", p.name()),
                Err(e) => format!("ERROR point:{}: {e}\n", p.name()),
            },
            Query::Figure(id) => id
                .compute(inputs)
                .map(|fig| fig.render())
                .unwrap_or_else(|e| format!("ERROR fig:{}: {e}\n", id.name())),
            Query::PolicyAb(spec) => {
                // The arms re-simulate the frozen trace; the detailed
                // telemetry subset only feeds figures 6/7, so the A/B
                // replay skips it (same shortcut as the batch tool).
                let base = SimConfig { detailed_series_jobs: 0, ..self.sim_config.clone() };
                match PolicyExperiment::new(base, *spec).run(&self.trace) {
                    Ok(result) => result.fig.render(),
                    Err(e) => format!("ERROR ab:{}: {e}\n", spec.label()),
                }
            }
            Query::DataQuality(profile) => {
                let dataset = &self.out.dataset;
                DataQualityFig::round_trip(dataset, *profile, self.config.seed, &Obs::off(), None)
                    .map(|fig| fig.render())
                    .unwrap_or_else(|e| format!("ERROR dq:{}: {e}\n", profile.label()))
            }
            Query::Reliability(r) => self.compute_reliability(*r),
        }
    }

    /// Answers one `rel:*` query: replay the frozen trace under the
    /// scenario's failure model (or a stressed Supercloud default when
    /// the world has none) on the scenario's reliability grid, and
    /// render the requested figure. Like the policy arms, the replay
    /// skips the detailed telemetry subset and relies on the memo
    /// cache to amortize repeats.
    fn compute_reliability(&self, r: RelQuery) -> String {
        let base = SimConfig { detailed_series_jobs: 0, ..self.sim_config.clone() };
        let model = self.config.scenario.reliability_model(self.config.seed);
        let cfg = self.config.scenario.reliability_config();
        match r {
            RelQuery::Summary => {
                sc_core::reliability::reliability_size_fig(&self.trace, &base, &model).render()
            }
            RelQuery::Frontier => sc_core::reliability::goodput_frontier(
                &self.trace,
                &base,
                &model,
                &cfg.mtbf_factors,
            )
            .render(),
            RelQuery::Sweep => {
                sc_core::reliability::checkpoint_sweep(&self.trace, &base, &model, &cfg).render()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::{FigureId, PointStat};
    use std::sync::OnceLock;

    static SVC: OnceLock<Arc<Service>> = OnceLock::new();

    /// One shared 2%-scale service; building it once keeps the suite
    /// fast, and every test below only reads.
    fn svc() -> &'static Arc<Service> {
        SVC.get_or_init(|| {
            Arc::new(Service::build(ServeConfig {
                seed: 20_220_701,
                threads: 2,
                ..ServeConfig::default()
            }))
        })
    }

    #[test]
    fn point_query_serves_and_then_hits() {
        let s = svc();
        let q = Query::Point(PointStat::MedianRunMin);
        let first = s.query_blocking(&q);
        let again = s.query_blocking(&q);
        assert!(first.body.starts_with("median_run_min = "), "{}", first.body);
        assert_eq!(first.body, again.body);
        assert_eq!(again.outcome, CacheOutcome::Hit);
    }

    #[test]
    fn figure_query_matches_the_standalone_render() {
        // Every point and figure query against a body computed from
        // freshly built views and user statistics, so the per-world
        // copies the service keeps cannot drift from a direct
        // computation. Submitted requests read the pool's views, and
        // the service is fresh, so every one of them is a pool miss.
        let s = Arc::new(Service::build(ServeConfig {
            seed: 20_220_701,
            threads: 2,
            ..ServeConfig::default()
        }));
        let out = s.sim_output();
        let views = gpu_views(&out.dataset);
        let users = user_stats(&views);
        let input = Inputs { dataset: &out.dataset, views: &views, users: &users, sim: Some(out) };
        let surface: Vec<Query> =
            Query::point_queries().into_iter().chain(Query::figure_queries()).collect();
        assert_eq!(surface.len(), PointStat::ALL.len() + FigureId::ALL.len());
        for q in &surface {
            let direct = match q {
                Query::Point(p) => p.compute(&input).map(|v| format!("{} = {v:.6}\n", p.name())),
                Query::Figure(id) => id.compute(&input).map(|fig| fig.render()),
                other => panic!("not a point or figure query: {}", other.token()),
            }
            .unwrap_or_else(|e| panic!("{}: {e}", q.token()));
            let served = s.submit(*q).wait().response;
            assert_eq!(served.outcome, CacheOutcome::Miss, "{}", q.token());
            assert_eq!(*served.body, direct, "{}", q.token());
            assert!(!served.body.contains("ERROR"), "{}", served.body);
        }
    }

    #[test]
    fn uncached_body_is_byte_identical_to_cached() {
        let s = svc();
        for q in [Query::Point(PointStat::MeanSmUtil), Query::Figure(FigureId::Fig4)] {
            let cold = s.query_uncached(&q);
            let cached = s.query_blocking(&q);
            assert_eq!(cold, cached.body, "{}", q.token());
        }
    }

    #[test]
    fn submitted_request_matches_blocking_bytes() {
        let s = svc();
        let q = Query::Point(PointStat::TotalGpuHours);
        let blocking = s.query_blocking(&q);
        let done = s.submit(q).wait();
        assert_eq!(done.response.body, blocking.body);
        assert!(done.latency >= Duration::ZERO);
    }

    #[test]
    fn power_caps_that_round_alike_are_cached_apart() {
        let s = svc();
        let a = s.query_blocking(&Query::parse("ab:powercap:99.6").unwrap());
        let b = s.query_blocking(&Query::parse("ab:powercap:100.4").unwrap());
        assert_eq!(b.outcome, CacheOutcome::Miss);
        assert_ne!(a.body, b.body);
    }

    #[test]
    fn concurrent_identical_queries_compute_once() {
        let s = svc();
        let q = Query::Figure(FigureId::Fig15);
        let before = s.cache_stats();
        let pending: Vec<Pending> = (0..8).map(|_| s.submit(q)).collect();
        let bodies: Vec<Arc<String>> =
            pending.into_iter().map(|p| p.wait().response.body).collect();
        let delta = s.cache_stats().since(&before);
        assert_eq!(delta.misses, 1, "{delta:?}");
        assert_eq!(delta.hits + delta.coalesced, 7, "{delta:?}");
        for b in &bodies {
            assert_eq!(b, &bodies[0]);
        }
    }

    #[test]
    fn error_responses_are_in_band_and_cached() {
        // A fresh tiny world with no users floor and almost no jobs:
        // whether a user figure renders or degenerates to an ERROR
        // body, the response must cache and repeat byte-identically.
        let tiny = Service::build(ServeConfig {
            scale: 0.0001,
            users_floor: 1,
            threads: 1,
            ..ServeConfig::default()
        });
        let q = Query::Figure(FigureId::Fig10);
        let first = tiny.query_blocking(&q);
        let again = tiny.query_blocking(&q);
        assert_eq!(first.body, again.body);
        assert_eq!(again.outcome, CacheOutcome::Hit);
    }

    #[test]
    fn predicted_arm_without_gpu_jobs_is_an_error_body_and_the_pool_lives_on() {
        // No GPU job to train the classifier on. Computed on the
        // calling thread first, so a panic fails here instead of
        // taking a pool worker down and leaving the waits below hung.
        let mut sc = Scenario::default();
        sc.workload.gpu_job_fraction = Some(0.0);
        let s = Arc::new(Service::build(ServeConfig {
            scale: 0.002,
            users_floor: 1,
            threads: 1,
            cache: false,
            scenario: sc,
            ..ServeConfig::default()
        }));
        let q = Query::parse("ab:coshare-predicted").unwrap();
        let blocking = s.query_blocking(&q).body;
        assert!(blocking.starts_with("ERROR ab:coshare-predicted: "), "{blocking}");
        assert_eq!(s.submit(q).wait().response.body, blocking, "the pool computes the same error");
        let point = s.submit(Query::Point(PointStat::JobsAnalyzed)).wait().response.body;
        assert_eq!(*point, "jobs_analyzed = 0.000000\n");
    }

    #[test]
    fn bounded_cache_evicts_and_recomputes_identical_bytes() {
        let s = Service::build(ServeConfig {
            scale: 0.0001,
            users_floor: 1,
            threads: 1,
            cache_capacity: 16,
            ..ServeConfig::default()
        });
        let surface: Vec<Query> =
            Query::point_queries().into_iter().chain(Query::figure_queries()).collect();
        assert!(surface.len() > 16, "need more distinct queries than cache slots");
        let first: Vec<Arc<String>> = surface.iter().map(|q| s.query_blocking(q).body).collect();
        let stats = s.cache_stats();
        assert!(stats.evictions > 0, "an overfull cache must evict: {stats:?}");
        // Second pass: hits and post-eviction recomputes alike must
        // reproduce the first pass byte-for-byte.
        for (q, body) in surface.iter().zip(&first) {
            assert_eq!(&s.query_blocking(q).body, body, "{}", q.token());
        }
    }

    #[test]
    fn cache_off_always_misses() {
        let s = Service::build(ServeConfig {
            scale: 0.0001,
            users_floor: 1,
            threads: 1,
            cache: false,
            ..ServeConfig::default()
        });
        let q = Query::Point(PointStat::JobsAnalyzed);
        assert_eq!(s.query_blocking(&q).outcome, CacheOutcome::Miss);
        assert_eq!(s.query_blocking(&q).outcome, CacheOutcome::Miss);
        assert_eq!(s.cache_stats(), CacheStats::default(), "the cache is never consulted");
    }

    #[test]
    fn reliability_queries_serve_hit_and_match_cold_bytes() {
        let s = svc();
        for q in Query::reliability_queries() {
            let first = s.query_blocking(&q);
            assert!(!first.body.is_empty(), "{}", q.token());
            assert!(!first.body.contains("ERROR"), "{}: {}", q.token(), first.body);
            let again = s.query_blocking(&q);
            assert_eq!(again.outcome, CacheOutcome::Hit, "{}", q.token());
            assert_eq!(first.body, again.body, "{}", q.token());
            // The memoized bytes equal a cold recompute: the cache can
            // only change latency, never content.
            assert_eq!(s.query_uncached(&q), first.body, "{}", q.token());
        }
    }

    #[test]
    fn reliability_summary_respects_the_scenario_failure_model() {
        // A scenario with a stress failure profile must answer
        // rel:summary from its own model, not the stressed default.
        let sc = Scenario::parse(
            "[scenario]\nname = \"rel\"\n[failures]\nprofile = \"stress\"\n\
             [reliability]\nenabled = true\nsweep_points = 2\nmtbf_factors = [1.0]\n",
        )
        .expect("valid scenario");
        let s = Service::build(ServeConfig {
            scale: 0.002,
            users_floor: 8,
            threads: 1,
            scenario: sc,
            ..ServeConfig::default()
        });
        let body = s.query_blocking(&Query::Reliability(RelQuery::Summary)).body;
        assert!(body.contains("Reliability vs job size"), "{body}");
    }

    #[test]
    fn supercloud_scenario_serves_default_bytes_under_a_hashed_key() {
        // The default world IS the supercloud preset: one hash-addressed
        // label, one cache key, byte-identical response bodies.
        let base =
            ServeConfig { scale: 0.0001, users_floor: 1, threads: 1, ..ServeConfig::default() };
        let default_svc = Service::build(base.clone());
        let sc = Scenario::preset("supercloud").expect("preset");
        let hash = sc.hash();
        let scen_svc = Service::build(ServeConfig { scenario: sc, ..base });
        assert_eq!(default_svc.scenario(), format!("supercloud#{hash:016x}:s0.0001"));
        assert_eq!(scen_svc.scenario(), default_svc.scenario());
        for q in [Query::Point(PointStat::TotalGpuHours), Query::Figure(FigureId::Fig3)] {
            assert_eq!(
                default_svc.query_blocking(&q).body,
                scen_svc.query_blocking(&q).body,
                "{}",
                q.token()
            );
            assert_eq!(default_svc.key(&q), scen_svc.key(&q), "{}", q.token());
        }
    }

    #[test]
    fn different_scenarios_never_share_cache_keys() {
        let base =
            ServeConfig { scale: 0.0001, users_floor: 1, threads: 1, ..ServeConfig::default() };
        let philly = Service::build(ServeConfig {
            scenario: Scenario::preset("philly").expect("preset"),
            ..base.clone()
        });
        let nersc = Service::build(ServeConfig {
            scenario: Scenario::preset("nersc").expect("preset"),
            ..base
        });
        let q = Query::Point(PointStat::JobsAnalyzed);
        assert_ne!(philly.key(&q), nersc.key(&q));
        assert!(philly.scenario().starts_with("philly#"), "{}", philly.scenario());
        assert!(nersc.scenario().starts_with("nersc#"), "{}", nersc.scenario());
    }

    #[test]
    fn tracing_records_one_span_per_computed_response() {
        let s = Service::build(ServeConfig {
            scale: 0.0001,
            users_floor: 1,
            threads: 1,
            tracing: true,
            ..ServeConfig::default()
        });
        let q = Query::Point(PointStat::JobsAnalyzed);
        s.query_blocking(&q);
        s.query_blocking(&q); // hit: no new span
        let spans = s.stage_spans();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].name, "query:point:jobs_analyzed");
    }
}

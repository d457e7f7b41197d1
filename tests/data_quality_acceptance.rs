//! Acceptance bands for the data-quality repair pipeline: under the
//! `lossy` collection profile — 10% dropped sample windows, 5%
//! truncated series, 3% missing epilogs, 5% clock skew and
//! out-of-order delivery, NaN/spike power glitches — the recovered
//! headline statistics must stay within documented bands of the clean
//! ones, and the repair ledger must balance.
//!
//! The bands are deliberately wide enough to hold across seeds (the
//! quarantine path removes up to ~4% of GPU records) but tight enough
//! that a broken repair strategy — epilog reconstruction off by the
//! sample period, power imputation ignoring the clamp, dedup keeping
//! the conflicting copy — fails decisively.

use sc_repro::core::figures::{Fig10, Fig15, Fig3, Fig4, Fig9};
use sc_repro::prelude::*;
use std::sync::OnceLock;

/// The figures the bands read, computed from one dataset.
struct Figures {
    fig3: Fig3,
    fig4: Fig4,
    fig9: Fig9,
    fig10: Fig10,
    fig15: Fig15,
}

impl Figures {
    fn of(dataset: &Dataset) -> Figures {
        let views = gpu_views(dataset);
        Figures {
            fig3: Fig3::try_compute(dataset).expect("fig3"),
            fig4: Fig4::try_compute(&views).expect("fig4"),
            fig9: Fig9::try_compute(&views).expect("fig9"),
            fig10: Fig10::try_compute(&user_stats(&views)).expect("fig10"),
            fig15: Fig15::try_compute(&views).expect("fig15"),
        }
    }
}

static ROUND_TRIP: OnceLock<(Figures, Figures, IngestReport, CorruptionCounters)> = OnceLock::new();

/// Clean figures, recovered figures, and the ledgers, computed once.
fn round_trip() -> &'static (Figures, Figures, IngestReport, CorruptionCounters) {
    ROUND_TRIP.get_or_init(|| {
        let mut spec = WorkloadSpec::supercloud().scaled(0.02);
        spec.users = 64;
        let trace = Trace::generate(&spec, 20_220_701);
        let out = Simulation::new(SimConfig { detailed_series_jobs: 0, ..Default::default() })
            .run(&trace);
        let clean = Figures::of(&out.dataset);
        let (ingested, injected) =
            corrupt_and_ingest(&out.dataset, DataQualityProfile::Lossy, 42, &Obs::off())
                .expect("lossy ingest succeeds");
        (clean, Figures::of(&ingested.dataset), ingested.report, injected)
    })
}

/// Relative deviation of `b` from `a`, percent.
fn pct(a: f64, b: f64) -> f64 {
    ((b - a) / a * 100.0).abs()
}

#[test]
fn lossy_ledger_balances_and_faults_actually_fired() {
    let (_, _, report, injected) = round_trip();
    assert!(report.balances_against(injected), "ledger must balance per class");
    // The profile must exercise every scheduler-stream fault class —
    // a silent zero means the injector or the small trace regressed.
    for class in [
        FaultClass::DuplicateRecord,
        FaultClass::MissingEpilog,
        FaultClass::TruncatedEpilog,
        FaultClass::ClockSkew,
        FaultClass::OutOfOrder,
        FaultClass::NanPower,
    ] {
        assert!(injected.get(class) > 0, "no {class} faults injected");
    }
}

#[test]
fn run_time_quantiles_recover_within_bands() {
    let (clean, recovered, _, _) = round_trip();
    // Epilog reconstruction rebuilds end times from telemetry sample
    // counts (0.1 s resolution), so the run-time distribution is nearly
    // exact; quantiles may shift slightly where quarantined records
    // thin the sample.
    let c = &clean.fig3.gpu_runtime_min;
    let r = &recovered.fig3.gpu_runtime_min;
    assert!(pct(c.median(), r.median()) < 5.0, "median {} vs {}", c.median(), r.median());
    assert!(pct(c.quantile(0.25), r.quantile(0.25)) < 10.0);
    assert!(pct(c.quantile(0.75), r.quantile(0.75)) < 10.0);
}

#[test]
fn utilization_and_power_medians_recover_within_bands() {
    let (clean, recovered, _, _) = round_trip();
    assert!(pct(clean.fig4.sm.median(), recovered.fig4.sm.median()) < 10.0);
    assert!(pct(clean.fig9.avg_power.median(), recovered.fig9.avg_power.median()) < 5.0);
    // Spike repair must pull the max-power median back toward clean:
    // the recovered median may not exceed clean by more than the band
    // (un-repaired 1.5-3x spikes would blow far past it).
    assert!(pct(clean.fig9.max_power.median(), recovered.fig9.max_power.median()) < 5.0);
}

#[test]
fn class_mix_and_concentration_recover_within_bands() {
    let (clean, recovered, _, _) = round_trip();
    for (c, r) in clean.fig15.shares.iter().zip(&recovered.fig15.shares) {
        assert!(
            (c.job_share - r.job_share).abs() < 0.02,
            "{:?} share {} vs {}",
            c.class,
            c.job_share,
            r.job_share
        );
    }
    assert!((clean.fig10.top5_job_share - recovered.fig10.top5_job_share).abs() < 0.03);
}

#[test]
fn quarantine_is_bounded() {
    let (_, _, report, _) = round_trip();
    // The lossy profile loses ~3% of epilogs plus a little truncation
    // fallout; the pipeline must not quarantine wholesale.
    let dropped = report.records_in - report.records_out;
    assert!(
        (dropped as f64) < 0.05 * report.records_in as f64,
        "dropped {dropped} of {} records",
        report.records_in
    );
    assert!(report.repaired.total() > report.quarantined.total());
}

#[test]
fn series_micro_study_recovers_active_fraction() {
    let study =
        sc_repro::core::ingest::series_study(DataQualityProfile::Lossy, 42, 48, 1_800.0, 0.1)
            .expect("series study succeeds");
    assert_eq!(format!("{:?}", study.injected), format!("{:?}", study.detected));
    assert!(study.repaired.total() > 0, "window faults must fire");
    assert!(
        (study.mean_active_clean - study.mean_active_recovered).abs() < 0.05,
        "mean active fraction {} vs {}",
        study.mean_active_clean,
        study.mean_active_recovered
    );
}

//! The hardened ingest stage: detection, repair and quarantine of
//! collection faults, run *before* the analysis pipeline.
//!
//! The real pipeline joined a Slurm accounting log with per-job epilog
//! telemetry; both streams arrive dirty in production. This stage takes
//! a [`RawCollection`] (possibly produced by the seeded injector in
//! [`sc_telemetry::corruption`]) and emits an analysis-ready
//! [`Dataset`] plus an [`IngestReport`] whose ledger balances exactly:
//! every detected fault is either repaired or quarantined, and for
//! injector-produced streams `injected == detected` per class (the
//! injector only injects what these detectors define as detectable).
//!
//! Detection → repair mapping, per [`FaultClass`]:
//!
//! | class | detector | repair / quarantine |
//! |---|---|---|
//! | duplicate-record | same job id twice | drop copies; conflicting payloads quarantined |
//! | out-of-order | submit below running max | stable re-sort to `(submit, job_id)` |
//! | clock-skew | `start < submit` | translate forward so `start == submit` |
//! | truncated-epilog | NaN end time | reconstruct from the epilog sample count |
//! | missing-epilog | GPU job ≥ 30 s without telemetry | quarantine (kept, excluded from GPU analyses) |
//! | nan-power | non-finite power aggregate | impute via the linear V100 power model |
//! | power-spike | power max > 1.05 × TDP | clamp via the model from utilization maxima |
//! | dropped-window | interior NaN sample run | last-phase hold imputation |
//! | truncated-series | series shorter than the run | extend by holding the last sample |

use sc_obs::{Obs, Value};
use sc_stats::StatsError;
use sc_telemetry::corruption::{
    self, has_nan_power, has_power_spike, impute_power, is_missing, out_of_order_ids,
    records_equivalent, sort_canonical, CorruptionCounters, Corruptor, DataQualityProfile,
    FaultClass, RawCollection,
};
use sc_telemetry::dataset::{Dataset, MIN_GPU_JOB_RUNTIME_SECS};
use sc_telemetry::record::{GpuJobRecord, JobId, SchedulerRecord};
use sc_telemetry::sampler::{GpuSampler, GpuTimeSeries, GPU_SAMPLE_PERIOD_SECS};
use sc_telemetry::{phases, V100_IDLE_W, V100_TDP_W};
use sc_workload::{JobGroundTruth, TruthParams};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Typed ingest failures: the faults no repair strategy covers. These
/// abort the stage; everything else degrades to repair or quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataQualityError {
    /// The scheduler stream is empty — there is nothing to analyze.
    EmptyCollection,
    /// A record's submit or start timestamp is non-finite; no repair
    /// strategy can anchor such a record on the timeline.
    CorruptTimestamp(JobId),
    /// A telemetry record references a job id absent from the
    /// scheduler stream — the join key itself is corrupt.
    OrphanTelemetry(JobId),
}

impl std::fmt::Display for DataQualityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataQualityError::EmptyCollection => write!(f, "empty scheduler stream"),
            DataQualityError::CorruptTimestamp(id) => {
                write!(f, "non-finite submit/start timestamp on {id}")
            }
            DataQualityError::OrphanTelemetry(id) => {
                write!(f, "telemetry for {id} has no scheduler record")
            }
        }
    }
}

impl std::error::Error for DataQualityError {}

/// Per-record provenance: which fault classes touched a record on its
/// way through ingest. One bit per [`FaultClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance(pub u16);

impl Provenance {
    /// Marks `class` as having touched the record.
    pub fn set(&mut self, class: FaultClass) {
        self.0 |= 1 << class.index();
    }

    /// Whether `class` touched the record.
    pub fn has(&self, class: FaultClass) -> bool {
        self.0 & (1 << class.index()) != 0
    }

    /// Whether any fault touched the record.
    pub fn is_clean(&self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return f.write_str("clean");
        }
        let mut first = true;
        for class in FaultClass::ALL {
            if self.has(class) {
                if !first {
                    f.write_str("+")?;
                }
                f.write_str(class.label())?;
                first = false;
            }
        }
        Ok(())
    }
}

/// What happened to a quarantined fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineAction {
    /// The record could not be repaired and was dropped entirely.
    DroppedRecord,
    /// The record is kept but excluded from GPU analyses (its
    /// telemetry is gone).
    ExcludedFromGpuAnalysis,
    /// A duplicate copy with a conflicting payload was discarded in
    /// favor of the first-seen record.
    DroppedConflictingDuplicate,
}

impl QuarantineAction {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            QuarantineAction::DroppedRecord => "dropped-record",
            QuarantineAction::ExcludedFromGpuAnalysis => "excluded-from-gpu-analysis",
            QuarantineAction::DroppedConflictingDuplicate => "dropped-conflicting-duplicate",
        }
    }
}

impl std::fmt::Display for QuarantineAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One quarantined fault: the audit-trail row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// The affected job.
    pub job_id: JobId,
    /// The fault class that triggered quarantine.
    pub class: FaultClass,
    /// What the quarantine path did.
    pub action: QuarantineAction,
}

/// The ingest ledger: what was detected, what was repaired, what was
/// quarantined, and which records carry provenance flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Faults detected, per class.
    pub detected: CorruptionCounters,
    /// Faults repaired in place, per class.
    pub repaired: CorruptionCounters,
    /// Faults routed to quarantine, per class.
    pub quarantined: CorruptionCounters,
    /// The quarantine audit trail.
    pub quarantine: Vec<QuarantineEntry>,
    /// Provenance flags for every record a fault touched (job ids are
    /// unique after dedup; sorted for determinism).
    pub provenance: Vec<(JobId, Provenance)>,
    /// Scheduler records entering the stage.
    pub records_in: usize,
    /// Records surviving into the dataset.
    pub records_out: usize,
}

impl IngestReport {
    /// Whether the ledger balances against an injection ledger:
    /// `injected == detected == repaired + quarantined` for every
    /// fault class.
    pub fn balances_against(&self, injected: &CorruptionCounters) -> bool {
        FaultClass::ALL.iter().all(|&c| {
            injected.get(c) == self.detected.get(c)
                && self.detected.get(c) == self.repaired.get(c) + self.quarantined.get(c)
        })
    }

    /// Human-readable ledger table.
    pub fn render(&self) -> String {
        let mut s = String::from("ingest repair ledger\n");
        s.push_str(&format!(
            "  records: {} in -> {} out ({} dropped)\n",
            self.records_in,
            self.records_out,
            self.records_in - self.records_out
        ));
        s.push_str("  class              detected  repaired  quarantined\n");
        for class in FaultClass::ALL {
            if self.detected.get(class) == 0 {
                continue;
            }
            s.push_str(&format!(
                "  {:<18} {:>8}  {:>8}  {:>11}\n",
                class.label(),
                self.detected.get(class),
                self.repaired.get(class),
                self.quarantined.get(class)
            ));
        }
        s.push_str(&format!(
            "  total              {:>8}  {:>8}  {:>11}\n",
            self.detected.total(),
            self.repaired.total(),
            self.quarantined.total()
        ));
        s
    }
}

/// The ingest stage's output: an analysis-ready dataset plus its
/// repair ledger.
#[derive(Debug, Clone)]
pub struct IngestOutput {
    /// The repaired, joined, canonical-order dataset.
    pub dataset: Dataset,
    /// The repair ledger and audit trail.
    pub report: IngestReport,
}

/// Runs detection + repair + quarantine over a raw collection and
/// joins the surviving streams into an analysis-ready [`Dataset`].
///
/// Every repaired fault emits one `dq_repair` event and every
/// quarantined fault one `dq_quarantine` event on `obs`, so the event
/// stream is 1:1 with the ledger counters.
///
/// # Errors
///
/// Returns a [`DataQualityError`] for faults outside every repair
/// strategy: an empty stream, non-finite submit/start timestamps, or
/// telemetry whose join key matches no scheduler record.
pub fn ingest(raw: RawCollection, obs: &Obs) -> Result<IngestOutput, DataQualityError> {
    if raw.sched.is_empty() {
        return Err(DataQualityError::EmptyCollection);
    }
    let mut report = IngestReport { records_in: raw.sched.len(), ..Default::default() };
    let mut provenance: BTreeMap<JobId, Provenance> = BTreeMap::new();
    let mut sched = raw.sched;
    let mut gpu = raw.gpu;

    for rec in &sched {
        if !rec.submit_time.is_finite() || !rec.start_time.is_finite() {
            return Err(DataQualityError::CorruptTimestamp(rec.job_id));
        }
    }
    let known: HashSet<JobId> = sched.iter().map(|r| r.job_id).collect();
    if let Some(orphan) = gpu.iter().find(|g| !known.contains(&g.job_id)) {
        return Err(DataQualityError::OrphanTelemetry(orphan.job_id));
    }

    // Stage 1: out-of-order detection (running submit-time maximum,
    // the same definition the injector counts with), then the stable
    // re-sort to canonical `(submit, job_id)` order.
    let displaced = out_of_order_ids(&sched);
    let mut events: Vec<(f64, &'static str, JobId, FaultClass)> = Vec::new();
    for &id in &displaced {
        report.detected.record(FaultClass::OutOfOrder);
        report.repaired.record(FaultClass::OutOfOrder);
        provenance.entry(id).or_default().set(FaultClass::OutOfOrder);
        events.push((0.0, "dq_repair", id, FaultClass::OutOfOrder));
    }
    sort_canonical(&mut sched);
    gpu.sort_by_key(|g| g.job_id);

    // Stage 2: dedup by record identity. After the canonical sort,
    // copies of a job are adjacent; the first-seen record wins.
    let mut deduped: Vec<SchedulerRecord> = Vec::with_capacity(sched.len());
    for rec in sched {
        match deduped.last() {
            Some(prev) if prev.job_id == rec.job_id => {
                let class = FaultClass::DuplicateRecord;
                report.detected.record(class);
                provenance.entry(rec.job_id).or_default().set(class);
                if records_equivalent(prev, &rec) {
                    report.repaired.record(class);
                    events.push((rec.submit_time, "dq_repair", rec.job_id, class));
                } else {
                    report.quarantined.record(class);
                    report.quarantine.push(QuarantineEntry {
                        job_id: rec.job_id,
                        class,
                        action: QuarantineAction::DroppedConflictingDuplicate,
                    });
                    events.push((rec.submit_time, "dq_quarantine", rec.job_id, class));
                }
            }
            _ => deduped.push(rec),
        }
    }
    let mut sched = deduped;
    gpu.dedup_by(|a, b| a.job_id == b.job_id); // silent: counted on the sched side
    let mut gpu_by_id: HashMap<JobId, GpuJobRecord> =
        gpu.into_iter().map(|g| (g.job_id, g)).collect();

    // Stage 3: per-record timestamp repair.
    let mut kept: Vec<SchedulerRecord> = Vec::with_capacity(sched.len());
    for mut rec in sched.drain(..) {
        let id = rec.job_id;
        // Clock skew: a backwards node clock stamped start (and end)
        // earlier than the scheduler stamped submit. Translate the run
        // forward so start == submit; the run length is preserved, the
        // (unknowable) true queue wait collapses to zero.
        if rec.start_time < rec.submit_time - 1e-9 {
            let delta = rec.submit_time - rec.start_time;
            rec.start_time += delta;
            rec.end_time += delta; // NaN end stays NaN
            report.detected.record(FaultClass::ClockSkew);
            report.repaired.record(FaultClass::ClockSkew);
            provenance.entry(id).or_default().set(FaultClass::ClockSkew);
            events.push((rec.submit_time, "dq_repair", id, FaultClass::ClockSkew));
        }
        // Truncated epilog: the accounting end time never got stamped.
        // The epilog's sample count reconstructs the run length for
        // GPU jobs; CPU jobs have no second witness and are dropped.
        if rec.end_time.is_nan() {
            let class = FaultClass::TruncatedEpilog;
            report.detected.record(class);
            provenance.entry(id).or_default().set(class);
            let count = gpu_by_id
                .get(&id)
                .and_then(|g| g.per_gpu.first())
                .map(|a| a.sm_util.count)
                .unwrap_or(0);
            if count > 0 {
                rec.end_time = rec.start_time + count as f64 * GPU_SAMPLE_PERIOD_SECS;
                report.repaired.record(class);
                events.push((rec.submit_time, "dq_repair", id, class));
            } else {
                report.quarantined.record(class);
                report.quarantine.push(QuarantineEntry {
                    job_id: id,
                    class,
                    action: QuarantineAction::DroppedRecord,
                });
                events.push((rec.submit_time, "dq_quarantine", id, class));
                gpu_by_id.remove(&id);
                continue;
            }
        }
        kept.push(rec);
    }

    // Stage 4: power-sensor repair on the surviving telemetry.
    for rec in &kept {
        let Some(g) = gpu_by_id.get_mut(&rec.job_id) else { continue };
        if has_nan_power(g) {
            let class = FaultClass::NanPower;
            for agg in &mut g.per_gpu {
                agg.power_w = impute_power(agg);
            }
            report.detected.record(class);
            report.repaired.record(class);
            provenance.entry(rec.job_id).or_default().set(class);
            events.push((rec.submit_time, "dq_repair", rec.job_id, class));
        } else if has_power_spike(g) {
            let class = FaultClass::PowerSpike;
            for agg in &mut g.per_gpu {
                if agg.power_w.max > V100_TDP_W * 1.05 {
                    agg.power_w.max = impute_power(agg).max.max(agg.power_w.mean);
                }
            }
            report.detected.record(class);
            report.repaired.record(class);
            provenance.entry(rec.job_id).or_default().set(class);
            events.push((rec.submit_time, "dq_repair", rec.job_id, class));
        }
    }

    // Stage 5: missing epilogs. The record survives (its scheduler
    // facts are intact) but is excluded from GPU analyses downstream —
    // the dataset join marks it missing-telemetry.
    for rec in &kept {
        if is_gpu_analyzed(rec) && !gpu_by_id.contains_key(&rec.job_id) {
            let class = FaultClass::MissingEpilog;
            report.detected.record(class);
            report.quarantined.record(class);
            provenance.entry(rec.job_id).or_default().set(class);
            report.quarantine.push(QuarantineEntry {
                job_id: rec.job_id,
                class,
                action: QuarantineAction::ExcludedFromGpuAnalysis,
            });
            events.push((rec.submit_time, "dq_quarantine", rec.job_id, class));
        }
    }

    report.records_out = kept.len();
    report.provenance = provenance.into_iter().collect();
    for (t, name, id, class) in events {
        obs.event(t, name, || {
            vec![("job", Value::U64(id.0)), ("class", Value::Str(class.label()))]
        });
    }
    let gpu: Vec<GpuJobRecord> = kept.iter().filter_map(|r| gpu_by_id.remove(&r.job_id)).collect();
    let dataset = Dataset::join(kept, gpu);
    Ok(IngestOutput { dataset, report })
}

/// Whether a record belongs to the GPU-analysis population (the
/// paper's ≥ 30 s GPU-job filter) and therefore must carry telemetry.
fn is_gpu_analyzed(rec: &SchedulerRecord) -> bool {
    rec.is_gpu_job() && rec.run_time() >= MIN_GPU_JOB_RUNTIME_SECS
}

/// The outcome of repairing one detailed time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeriesRepair {
    /// Faults detected (dropped windows, truncated tails).
    pub detected: CorruptionCounters,
    /// Faults repaired (all series faults are repairable).
    pub repaired: CorruptionCounters,
    /// Samples filled by last-phase hold inside dropped windows.
    pub imputed_samples: u64,
    /// Samples appended to reconstruct a truncated tail.
    pub appended_samples: u64,
}

/// Repairs a corrupted detailed series in place: interior NaN runs
/// (dropped collector windows) are filled by holding the last valid
/// sample — the *last-phase hold* — and a short series is extended to
/// `expected_len` by holding its final sample, reconstructing the tail
/// a killed collector lost. Leading NaN runs back-fill from the first
/// valid sample; a GPU with no valid samples at all is filled with
/// idle readings.
pub fn repair_series(series: &mut GpuTimeSeries, expected_len: usize) -> SeriesRepair {
    let mut out = SeriesRepair::default();
    for samples in &mut series.per_gpu {
        if samples.len() < expected_len {
            out.detected.record(FaultClass::TruncatedSeries);
            out.repaired.record(FaultClass::TruncatedSeries);
            let tail = samples
                .iter()
                .rev()
                .find(|s| !is_missing(s))
                .copied()
                .unwrap_or_else(|| sc_telemetry::GpuMetricSample::idle(V100_IDLE_W));
            out.appended_samples += (expected_len - samples.len()) as u64;
            samples.resize(expected_len, tail);
        }
        // Interior gap imputation: each maximal NaN run is one
        // detected dropped window.
        let mut last_valid: Option<sc_telemetry::GpuMetricSample> = None;
        let mut run_start: Option<usize> = None;
        for i in 0..samples.len() {
            if is_missing(&samples[i]) {
                if run_start.is_none() {
                    run_start = Some(i);
                    out.detected.record(FaultClass::DroppedWindow);
                    out.repaired.record(FaultClass::DroppedWindow);
                }
                if let Some(hold) = last_valid {
                    samples[i] = hold;
                    out.imputed_samples += 1;
                }
            } else {
                if let Some(start) = run_start.take() {
                    if last_valid.is_none() {
                        // Leading gap: back-fill from this first valid
                        // sample.
                        let fill = samples[i];
                        for s in &mut samples[start..i] {
                            *s = fill;
                            out.imputed_samples += 1;
                        }
                    }
                }
                last_valid = Some(samples[i]);
            }
        }
        if run_start.is_some() && last_valid.is_none() {
            // No valid sample anywhere: fall back to idle readings.
            for s in samples.iter_mut() {
                *s = sc_telemetry::GpuMetricSample::idle(V100_IDLE_W);
                out.imputed_samples += 1;
            }
        }
    }
    out
}

/// The series-level corrupt → repair round trip, measured: a fixed
/// panel of representative ground-truth processes is sampled, fed
/// through the injector's series faults, repaired, and compared
/// against its clean phase statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStudy {
    /// Number of series in the panel.
    pub jobs: usize,
    /// Series faults injected.
    pub injected: CorruptionCounters,
    /// Series faults detected by the repairer.
    pub detected: CorruptionCounters,
    /// Series faults repaired.
    pub repaired: CorruptionCounters,
    /// Samples imputed by last-phase hold.
    pub imputed_samples: u64,
    /// Samples appended to reconstruct truncated tails.
    pub appended_samples: u64,
    /// Mean active fraction over the clean panel.
    pub mean_active_clean: f64,
    /// Mean active fraction over the recovered panel.
    pub mean_active_recovered: f64,
    /// Largest per-job |active-fraction delta| clean vs recovered.
    pub max_abs_active_delta: f64,
}

/// Runs the series-level round trip for `jobs` synthetic processes of
/// `duration_secs` sampled at `period_secs`.
///
/// # Errors
///
/// Propagates phase-analysis errors (practically unreachable for
/// non-empty panels).
pub fn series_study(
    profile: DataQualityProfile,
    seed: u64,
    jobs: usize,
    duration_secs: f64,
    period_secs: f64,
) -> Result<SeriesStudy, StatsError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let corruptor = Corruptor::new(profile, seed);
    let sampler = GpuSampler::with_period(period_secs);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e71_e55a);
    let mut injected = CorruptionCounters::new();
    let mut detected = CorruptionCounters::new();
    let mut repaired = CorruptionCounters::new();
    let mut imputed = 0u64;
    let mut appended = 0u64;
    let mut clean_sum = 0.0;
    let mut rec_sum = 0.0;
    let mut max_delta = 0.0f64;
    for j in 0..jobs {
        let params = TruthParams {
            duration: duration_secs,
            active_fraction: rng.gen_range(0.2..0.9),
            ..Default::default()
        };
        let truth = JobGroundTruth::generate(&mut rng, &params, 1, 0, 0.05);
        let mut series = sampler.sample_series(&truth, duration_secs);
        let expected_len = series.len();
        let clean = phases::phase_stats(&series)?;
        injected.merge(&corruptor.corrupt_series(&mut series, JobId(j as u64)));
        let repair = repair_series(&mut series, expected_len);
        detected.merge(&repair.detected);
        repaired.merge(&repair.repaired);
        imputed += repair.imputed_samples;
        appended += repair.appended_samples;
        let recovered = phases::phase_stats(&series)?;
        clean_sum += clean.active_fraction;
        rec_sum += recovered.active_fraction;
        max_delta = max_delta.max((recovered.active_fraction - clean.active_fraction).abs());
    }
    let n = jobs.max(1) as f64;
    Ok(SeriesStudy {
        jobs,
        injected,
        detected,
        repaired,
        imputed_samples: imputed,
        appended_samples: appended,
        mean_active_clean: clean_sum / n,
        mean_active_recovered: rec_sum / n,
        max_abs_active_delta: max_delta,
    })
}

/// Convenience: corrupt a clean dataset with `profile` and run the
/// hardened ingest, returning the recovered dataset, the ingest
/// report, and the injection ledger.
///
/// # Errors
///
/// Propagates [`ingest()`] errors.
pub fn corrupt_and_ingest(
    clean: &Dataset,
    profile: DataQualityProfile,
    seed: u64,
    obs: &Obs,
) -> Result<(IngestOutput, CorruptionCounters), DataQualityError> {
    let raw = Corruptor::new(profile, seed).corrupt(clean);
    let injected = raw.injected;
    let out = ingest(raw, obs)?;
    Ok((out, injected))
}

// `corruption::missing_sample` is re-exported for tests that build
// degenerate series by hand.
pub use corruption::missing_sample as missing_series_sample;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;
    use sc_obs::{RingSink, TraceLevel};

    fn lossy_ingest() -> (IngestOutput, CorruptionCounters) {
        let clean = &small_sim().dataset;
        corrupt_and_ingest(clean, DataQualityProfile::Lossy, 42, &Obs::off())
            .expect("lossy ingest succeeds")
    }

    #[test]
    fn empty_collection_is_a_typed_error() {
        let raw = RawCollection {
            sched: Vec::new(),
            gpu: Vec::new(),
            injected: CorruptionCounters::new(),
        };
        assert_eq!(ingest(raw, &Obs::off()).unwrap_err(), DataQualityError::EmptyCollection);
    }

    #[test]
    fn ledger_balances_per_class_under_every_profile() {
        let clean = &small_sim().dataset;
        for profile in
            [DataQualityProfile::Supercloud, DataQualityProfile::Lossy, DataQualityProfile::Hostile]
        {
            let (out, injected) =
                corrupt_and_ingest(clean, profile, 7, &Obs::off()).expect("ingest succeeds");
            assert!(
                out.report.balances_against(&injected),
                "{profile}: injected {:?}\ndetected {:?}\nrepaired {:?}\nquarantined {:?}",
                injected,
                out.report.detected,
                out.report.repaired,
                out.report.quarantined
            );
        }
    }

    #[test]
    fn off_profile_is_a_no_op() {
        let clean = &small_sim().dataset;
        let (out, injected) =
            corrupt_and_ingest(clean, DataQualityProfile::Off, 42, &Obs::off()).expect("ingest");
        assert_eq!(injected.total(), 0);
        assert_eq!(out.report.detected.total(), 0);
        assert_eq!(out.report.records_in, out.report.records_out);
        // Same records, canonical order: funnels agree.
        assert_eq!(out.dataset.records().len(), clean.records().len());
        assert_eq!(out.dataset.funnel().gpu_jobs, clean.funnel().gpu_jobs);
    }

    #[test]
    fn recovered_dataset_is_structurally_sound() {
        let (out, _) = lossy_ingest();
        let mut seen = HashSet::new();
        let mut last_submit = f64::NEG_INFINITY;
        for r in out.dataset.records() {
            assert!(seen.insert(r.sched.job_id), "duplicate survived: {}", r.sched.job_id);
            assert!(r.sched.submit_time >= last_submit, "order not canonical");
            last_submit = r.sched.submit_time;
            assert!(r.sched.end_time.is_finite(), "NaN end survived");
            assert!(r.sched.start_time >= r.sched.submit_time - 1e-9, "skew survived");
            if let Some(g) = &r.gpu {
                for a in &g.per_gpu {
                    assert!(a.power_w.mean.is_finite(), "NaN power survived");
                    assert!(a.power_w.max <= V100_TDP_W * 1.05, "spike survived");
                }
            }
        }
    }

    #[test]
    fn missing_epilogs_surface_as_missing_telemetry() {
        let (out, injected) = lossy_ingest();
        assert_eq!(
            out.dataset.funnel().gpu_jobs_missing_telemetry as u64,
            injected.get(FaultClass::MissingEpilog)
        );
    }

    #[test]
    fn obs_events_are_one_to_one_with_ledger() {
        let clean = &small_sim().dataset;
        let sink = RingSink::new(TraceLevel::Events, 1 << 20);
        let obs = Obs::new(&sink);
        let (out, _) =
            corrupt_and_ingest(clean, DataQualityProfile::Lossy, 42, &obs).expect("ingest");
        let records = sink.records();
        let repairs = records.iter().filter(|r| r.name == "dq_repair").count() as u64;
        let quarantines = records.iter().filter(|r| r.name == "dq_quarantine").count() as u64;
        assert_eq!(repairs, out.report.repaired.total());
        assert_eq!(quarantines, out.report.quarantined.total());
    }

    #[test]
    fn provenance_flags_name_the_fault() {
        let (out, _) = lossy_ingest();
        assert!(!out.report.provenance.is_empty());
        for (_, prov) in &out.report.provenance {
            assert!(!prov.is_clean());
            assert!(!prov.to_string().is_empty());
        }
        let mut p = Provenance::default();
        p.set(FaultClass::ClockSkew);
        p.set(FaultClass::NanPower);
        assert_eq!(p.to_string(), "clock-skew+nan-power");
    }

    #[test]
    fn repair_series_round_trips_gaps_and_tails() {
        let n = 600;
        let samples: Vec<sc_telemetry::GpuMetricSample> = (0..n)
            .map(|i| sc_telemetry::GpuMetricSample {
                sm_util: if (i / 50) % 2 == 0 { 60.0 } else { 0.0 },
                power_w: 100.0,
                ..Default::default()
            })
            .collect();
        let mut series = GpuTimeSeries { period_secs: 1.0, per_gpu: vec![samples] };
        let corruptor = Corruptor::new(DataQualityProfile::Lossy, 3);
        let mut run = 0;
        let injected = loop {
            let mut trial = series.clone();
            let injected = corruptor.corrupt_series(&mut trial, JobId(run));
            if injected.total() > 0 {
                series = trial;
                break injected;
            }
            run += 1;
            assert!(run < 64, "injector never fired");
        };
        let repair = repair_series(&mut series, n);
        assert_eq!(repair.detected, injected);
        assert_eq!(repair.repaired, injected);
        assert_eq!(series.len(), n);
        for s in &series.per_gpu[0] {
            assert!(s.is_valid(), "invalid sample after repair");
        }
    }

    #[test]
    fn series_study_ledger_balances_and_recovers() {
        let study =
            series_study(DataQualityProfile::Lossy, 11, 24, 1800.0, 1.0).expect("study succeeds");
        assert_eq!(study.injected, study.detected);
        assert_eq!(study.detected, study.repaired);
        assert!(study.injected.total() > 0, "panel saw no series faults");
        assert!(
            (study.mean_active_recovered - study.mean_active_clean).abs() < 0.05,
            "recovered active fraction drifted: {} vs {}",
            study.mean_active_recovered,
            study.mean_active_clean
        );
    }
}

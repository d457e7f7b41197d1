//! Data-quality report — what lossy collection does to the paper's
//! headline statistics, and how much of it the ingest stage repairs.
//!
//! Not a paper figure: the HPCA 2022 dataset was collected by a real
//! monitoring pipeline that silently dropped windows, truncated series
//! and duplicated records (Sec. II describes the collection plumbing).
//! This figure quantifies that threat on the synthetic twin: corrupt
//! the clean dataset with a seeded [`sc_telemetry::corruption`]
//! profile, push it through [`mod@crate::ingest`], and compare the
//! recovered headline statistics against the clean ones.

use crate::figures::fig13::SizeBucket;
use crate::figures::{Fig10, Fig13, Fig15, Fig3, Fig4, Fig9};
use crate::ingest::{corrupt_and_ingest, IngestReport, SeriesStudy};
use crate::pipeline::PipelineError;
use crate::query::FigureId;
use crate::userstats::user_stats;
use crate::view::gpu_views;
use sc_obs::Obs;
use sc_stats::StatsError;
use sc_telemetry::corruption::{CorruptionCounters, DataQualityProfile, FaultClass};
use sc_telemetry::Dataset;
use sc_workload::LifecycleClass;

/// The headline statistics, in row order.
const METRICS: [&str; 10] = [
    "GPU run time p25 (min)",
    "GPU run time median (min)",
    "GPU run time p75 (min)",
    "SM util median (%)",
    "mem util median (%)",
    "job-avg power median (W)",
    "job-max power median (W)",
    "mature job share",
    "single-GPU job share",
    "top-5% users' job share",
];

/// One dataset's headline statistics, in [`METRICS`] order. Only the
/// six figures they come from are computed: Figs. 3, 4, 9, 10, 13 and
/// 15.
fn headlines(dataset: &Dataset) -> Result<[f64; 10], PipelineError> {
    let views = gpu_views(dataset);
    let users = user_stats(&views);
    let at = |id: FigureId| move |source: StatsError| PipelineError { stage: id.name(), source };
    let fig3 = Fig3::try_compute(dataset).map_err(at(FigureId::Fig3))?;
    let fig4 = Fig4::try_compute(&views).map_err(at(FigureId::Fig4))?;
    let fig9 = Fig9::try_compute(&views).map_err(at(FigureId::Fig9))?;
    let fig10 = Fig10::try_compute(&users).map_err(at(FigureId::Fig10))?;
    let fig13 = Fig13::try_compute(&views, &users).map_err(at(FigureId::Fig13))?;
    let fig15 = Fig15::try_compute(&views).map_err(at(FigureId::Fig15))?;
    let run_time = &fig3.gpu_runtime_min;
    Ok([
        run_time.quantile(0.25),
        run_time.median(),
        run_time.quantile(0.75),
        fig4.sm.median(),
        fig4.mem.median(),
        fig9.avg_power.median(),
        fig9.max_power.median(),
        fig15.share(LifecycleClass::Mature).job_share,
        fig13.row(SizeBucket::One).job_share,
        fig10.top5_job_share,
    ])
}

/// One headline statistic, clean vs recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// The statistic (matches the figure it comes from).
    pub metric: &'static str,
    /// Value on the clean dataset.
    pub clean: f64,
    /// Value on the corrupted-then-repaired dataset.
    pub recovered: f64,
}

impl DeltaRow {
    /// Percent deviation of recovered from clean (0 for a ~zero clean
    /// value).
    pub fn delta_pct(&self) -> f64 {
        if self.clean.abs() < 1e-12 {
            0.0
        } else {
            (self.recovered - self.clean) / self.clean * 100.0
        }
    }
}

/// The full data-quality report: injection ledger, repair ledger, and
/// per-figure recovered-vs-clean deltas.
#[derive(Debug, Clone)]
pub struct DataQualityFig {
    /// The injection profile label (`supercloud`, `lossy`, `hostile`).
    pub profile: String,
    /// What the corruptor injected, per fault class.
    pub injected: CorruptionCounters,
    /// The ingest stage's detection/repair/quarantine ledger.
    pub report: IngestReport,
    /// Headline statistics, clean vs recovered, in figure order.
    pub deltas: Vec<DeltaRow>,
    /// The time-series micro-study (window drops and tail truncation
    /// repaired inside the 100 ms series), when run.
    pub series: Option<SeriesStudy>,
}

impl DataQualityFig {
    /// The data-quality round trip: corrupts `dataset` with `profile`,
    /// repairs it through the ingest stage (whose repair and quarantine
    /// events go to `obs`), and compares the recovered headline
    /// statistics with the clean ones.
    ///
    /// # Errors
    ///
    /// Names the ingest step or figure stage that failed.
    pub fn round_trip(
        dataset: &Dataset,
        profile: DataQualityProfile,
        seed: u64,
        obs: &Obs,
        series: Option<SeriesStudy>,
    ) -> Result<Self, String> {
        let (ingested, injected) =
            corrupt_and_ingest(dataset, profile, seed, obs).map_err(|e| e.to_string())?;
        let recovered = &ingested.dataset;
        Self::compute(profile.label(), injected, ingested.report, dataset, recovered, series)
            .map_err(|e| e.to_string())
    }

    /// Builds the report from the ledgers and the clean and recovered
    /// datasets, computing only the figures the headline rows read.
    ///
    /// # Errors
    ///
    /// Names the figure stage that failed on either dataset.
    pub fn compute(
        profile: &str,
        injected: CorruptionCounters,
        report: IngestReport,
        clean: &Dataset,
        recovered: &Dataset,
        series: Option<SeriesStudy>,
    ) -> Result<Self, PipelineError> {
        let (clean, recovered) = (headlines(clean)?, headlines(recovered)?);
        let deltas = METRICS
            .into_iter()
            .zip(clean.into_iter().zip(recovered))
            .map(|(metric, (clean, recovered))| DeltaRow { metric, clean, recovered })
            .collect();
        Ok(DataQualityFig { profile: profile.to_string(), injected, report, deltas, series })
    }

    /// Whether the ledger balances: every injected fault was detected,
    /// and every detected fault was either repaired or quarantined.
    pub fn balanced(&self) -> bool {
        self.report.balances_against(&self.injected)
    }

    /// Largest absolute headline deviation, percent.
    pub fn max_abs_delta_pct(&self) -> f64 {
        self.deltas.iter().map(|d| d.delta_pct().abs()).fold(0.0, f64::max)
    }

    /// Renders the ledgers and the delta table as text.
    pub fn render(&self) -> String {
        let mut s =
            format!("DataQuality — profile {} (corrupt -> ingest -> re-analyze):\n", self.profile);
        s.push_str("  injected faults:\n");
        for class in FaultClass::ALL {
            if self.injected.get(class) > 0 {
                s.push_str(&format!("    {:<18} {:>8}\n", class.label(), self.injected.get(class)));
            }
        }
        for line in self.report.render().lines() {
            s.push_str(&format!("  {line}\n"));
        }
        s.push_str(&format!("  ledger balanced: {}\n", if self.balanced() { "yes" } else { "NO" }));
        s.push_str("  headline statistics, clean vs recovered:\n");
        s.push_str("    metric                         clean  recovered    delta\n");
        for d in &self.deltas {
            s.push_str(&format!(
                "    {:<28} {:>8.2}  {:>9.2}  {:>+6.1}%\n",
                d.metric,
                d.clean,
                d.recovered,
                d.delta_pct()
            ));
        }
        if let Some(study) = &self.series {
            s.push_str(&format!(
                "  series micro-study: {} jobs, {} faults repaired ({} samples imputed, {} \
                 appended), mean active fraction {:.3} -> {:.3} (max |delta| {:.3})\n",
                study.jobs,
                study.repaired.total(),
                study.imputed_samples,
                study.appended_samples,
                study.mean_active_clean,
                study.mean_active_recovered,
                study.max_abs_active_delta
            ));
        }
        s
    }

    /// The recovered-vs-clean delta bars as an SVG document.
    pub fn to_svg(&self) -> String {
        let bars: Vec<(String, f64)> =
            self.deltas.iter().map(|d| (d.metric.to_string(), d.delta_pct())).collect();
        crate::svg::bar_chart(
            &format!("Data quality: recovered vs clean ({} profile)", self.profile),
            "recovered deviation from clean (%)",
            &bars,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::corrupt_and_ingest;
    use crate::testsupport::small_sim;
    use sc_obs::Obs;
    use sc_telemetry::corruption::DataQualityProfile;

    fn lossy_fig() -> DataQualityFig {
        let clean = &small_sim().dataset;
        let (out, injected) = corrupt_and_ingest(clean, DataQualityProfile::Lossy, 42, &Obs::off())
            .expect("lossy ingest succeeds");
        DataQualityFig::compute("lossy", injected, out.report, clean, &out.dataset, None)
            .expect("both pipelines")
    }

    #[test]
    fn lossy_round_trip_balances_and_stays_close() {
        let fig = lossy_fig();
        assert!(fig.balanced(), "ledger must balance");
        // The repair pipeline's whole point: headline statistics land
        // near the clean values even under 10% window loss and 3%
        // missing epilogs.
        assert!(
            fig.max_abs_delta_pct() < 15.0,
            "max headline delta {:.1}%",
            fig.max_abs_delta_pct()
        );
    }

    #[test]
    fn render_and_svg_carry_the_ledger() {
        let fig = lossy_fig();
        let text = fig.render();
        assert!(text.contains("ledger balanced: yes"));
        assert!(text.contains("clean vs recovered"));
        let svg = fig.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("recovered deviation from clean"));
    }
}

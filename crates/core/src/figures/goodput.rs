//! Goodput and failure attribution — the reliability extension.
//!
//! Not a figure of the HPCA 2022 paper: the Supercloud window saw
//! hardware behind under 0.5% of job deaths (Sec. II), so the paper
//! stops at that number. This figure carries the analysis the
//! reliability literature runs on larger fleets — where did every
//! allocated GPU-hour go, and which failure class destroyed the lost
//! ones — computed from the simulator's goodput ledger.

use crate::figures::Figure;
use crate::paper::operations as paper;
use crate::report::Comparison;
use crate::svg::bar_chart;
use sc_cluster::SimOutput;
use sc_stats::StatsError;
use sc_telemetry::record::{ExitStatus, FailureCause};

/// One taxonomy class's toll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CauseRow {
    /// The failure class.
    pub cause: FailureCause,
    /// Job attempts it killed.
    pub deaths: u64,
    /// Active GPU-hours it destroyed.
    pub lost_gpu_hours: f64,
}

/// The goodput breakdown over all attempts of every job.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputFig {
    /// Total allocated GPU-hours (all attempts).
    pub allocated_gpu_hours: f64,
    /// Active GPU-hours whose work survived.
    pub useful_gpu_hours: f64,
    /// Active GPU-hours destroyed by failures.
    pub lost_gpu_hours: f64,
    /// Allocated GPU-hours the GPUs sat idle.
    pub idle_gpu_hours: f64,
    /// GPU-hours spent writing checkpoints (a subset of useful).
    pub checkpoint_write_gpu_hours: f64,
    /// `useful / allocated`.
    pub goodput_fraction: f64,
    /// Per-cause attribution, in [`FailureCause::ALL`] order.
    pub by_cause: Vec<CauseRow>,
    /// Jobs whose final accounting record shows a hardware death, as a
    /// fraction of all jobs — the paper's <0.5% operations claim.
    pub hardware_death_fraction: f64,
    /// Jobs that needed more than one attempt.
    pub jobs_retried: usize,
    /// Jobs that needed more than one attempt and still ended in
    /// something other than a node failure — recovery worked.
    pub jobs_recovered: usize,
}

impl GoodputFig {
    /// Computes the breakdown from a simulation output.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when the output has no job
    /// fates.
    pub fn try_compute(out: &SimOutput) -> Result<Self, StatsError> {
        if out.fates.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let g = &out.goodput;
        let by_cause = FailureCause::ALL
            .iter()
            .map(|&cause| CauseRow {
                cause,
                deaths: g.deaths_by_cause[cause.index()],
                lost_gpu_hours: g.lost_by_cause_gpu_secs[cause.index()] / 3600.0,
            })
            .collect();
        let hardware_deaths =
            out.fates.iter().filter(|f| f.exit == ExitStatus::NodeFailure).count();
        let jobs_retried = out.fates.iter().filter(|f| f.attempts > 1).count();
        let jobs_recovered = out
            .fates
            .iter()
            .filter(|f| f.attempts > 1 && f.exit != ExitStatus::NodeFailure)
            .count();
        Ok(GoodputFig {
            allocated_gpu_hours: g.allocated_gpu_secs / 3600.0,
            useful_gpu_hours: g.useful_gpu_secs / 3600.0,
            lost_gpu_hours: g.lost_gpu_secs / 3600.0,
            idle_gpu_hours: g.idle_gpu_secs / 3600.0,
            checkpoint_write_gpu_hours: g.checkpoint_write_gpu_secs / 3600.0,
            goodput_fraction: g.goodput_fraction(),
            by_cause,
            hardware_death_fraction: hardware_deaths as f64 / out.fates.len() as f64,
            jobs_retried,
            jobs_recovered,
        })
    }
}

impl Figure for GoodputFig {
    /// Paper-vs-measured rows. Only the hardware-death fraction has a
    /// paper value; the rest of the breakdown is the extension.
    fn comparisons(&self) -> Vec<Comparison> {
        vec![Comparison::new(
            "hardware-failure job fraction",
            paper::HARDWARE_FAILURE_FRACTION,
            self.hardware_death_fraction,
            "frac",
        )]
    }

    /// Renders the ledger and the attribution table as text.
    fn render(&self) -> String {
        let mut s = String::from("Goodput and failure attribution (all attempts):\n");
        s.push_str(&format!(
            "  allocated {:.1} GPU-h = useful {:.1} + lost {:.1} + idle {:.1}  \
             (goodput {:.1}%)\n",
            self.allocated_gpu_hours,
            self.useful_gpu_hours,
            self.lost_gpu_hours,
            self.idle_gpu_hours,
            self.goodput_fraction * 100.0
        ));
        s.push_str(&format!(
            "  checkpoint writes: {:.1} GPU-h; hardware deaths: {:.2}% of jobs; \
             retried jobs: {} ({} recovered)\n",
            self.checkpoint_write_gpu_hours,
            self.hardware_death_fraction * 100.0,
            self.jobs_retried,
            self.jobs_recovered
        ));
        s.push_str("  cause             deaths   lost GPU-h\n");
        for row in &self.by_cause {
            s.push_str(&format!(
                "  {:<16} {:>7}  {:>10.1}\n",
                row.cause.to_string(),
                row.deaths,
                row.lost_gpu_hours
            ));
        }
        s
    }

    fn svgs(&self) -> Vec<(&'static str, String)> {
        let mut bars = vec![
            ("useful".to_string(), self.useful_gpu_hours),
            ("lost".to_string(), self.lost_gpu_hours),
            ("idle".to_string(), self.idle_gpu_hours),
        ];
        bars.extend(self.by_cause.iter().map(|r| (format!("lost: {}", r.cause), r.lost_gpu_hours)));
        vec![(
            "goodput_ledger.svg",
            bar_chart("Goodput — where allocated GPU-hours went", "GPU-hours", &bars),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;
    use sc_cluster::{FailureModel, SimConfig, Simulation};
    use sc_workload::{Trace, WorkloadSpec};

    #[test]
    fn ledger_balances_without_injection() {
        let fig = GoodputFig::try_compute(small_sim()).unwrap();
        let total = fig.useful_gpu_hours + fig.lost_gpu_hours + fig.idle_gpu_hours;
        assert!(
            (fig.allocated_gpu_hours - total).abs() <= 1e-6 * fig.allocated_gpu_hours,
            "imbalance: {fig:?}"
        );
        assert!(fig.goodput_fraction > 0.0 && fig.goodput_fraction <= 1.0);
        // Without injection, hardware deaths are the trace victims —
        // the same order as the paper's <0.5%.
        assert!(fig.hardware_death_fraction < 0.02);
        assert_eq!(fig.jobs_retried, 0);
        assert_eq!(fig.comparisons().len(), 1);
        assert!(fig.render().contains("Goodput"));
    }

    #[test]
    fn injection_shifts_hours_into_lost_buckets() {
        let spec = WorkloadSpec::supercloud().scaled(0.01);
        let trace = Trace::generate(&spec, 13);
        let out = Simulation::new(SimConfig {
            detailed_series_jobs: 0,
            failures: Some(FailureModel::supercloud(2).scaled_mtbf(0.05)),
            ..Default::default()
        })
        .run(&trace);
        let fig = GoodputFig::try_compute(&out).unwrap();
        assert!(fig.lost_gpu_hours > 0.0);
        assert!(fig.jobs_retried > 0);
        assert!(fig.jobs_recovered > 0, "some retried job should survive");
        let attributed: f64 = fig.by_cause.iter().map(|r| r.lost_gpu_hours).sum();
        assert!(
            (attributed - fig.lost_gpu_hours).abs() <= 1e-6 * fig.lost_gpu_hours.max(1.0),
            "per-cause rows must cover all losses"
        );
    }
}

//! Checkpoint/restart economics for non-mature jobs (Sec. VI takeaway).
//!
//! "A considerable number of jobs on the Supercloud system are also
//! development or IDE jobs that run until they encounter a failure or
//! timeout. To ensure that these jobs do not lose their state, there is
//! a growing need for architectural and system support for low-overhead
//! checkpoint/restart mechanisms."
//!
//! The model is the classical Young/Daly analysis: with checkpoints
//! every `tau` seconds, each costing `w` seconds of overhead, a job
//! killed at time `T` loses at most the work since its last checkpoint
//! (expected `tau / 2`) instead of everything since its last *manual*
//! save (here: everything, `T`).

use sc_core::GpuJobView;
use sc_telemetry::record::ExitStatus;

/// Checkpointing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointConfig {
    /// Time to write one checkpoint, seconds (model state → shared SSD;
    /// a few GB at a few GB/s).
    pub write_secs: f64,
    /// Mean time between involuntary terminations, seconds — used by
    /// the Young interval; for user-killed/timeout workloads the
    /// relevant horizon is the wall-clock limit.
    pub mtti_secs: f64,
}

impl CheckpointConfig {
    /// Young's optimal checkpoint interval: `sqrt(2 · w · MTTI)`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive.
    pub fn young_interval(&self) -> f64 {
        assert!(self.write_secs > 0.0 && self.mtti_secs > 0.0, "parameters must be positive");
        sc_core::reliability::young_daly_secs(self.write_secs, self.mtti_secs)
    }

    /// Bridges the analytical model into the event loop: a
    /// [`sc_cluster::CheckpointPolicy`] running at this config's Young
    /// interval. Plug it into [`sc_cluster::SimConfig::checkpoint`] and
    /// checkpointable jobs killed by injected failures resume from
    /// their last interval instead of restarting from scratch.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive (via
    /// [`CheckpointConfig::young_interval`]).
    pub fn sim_policy(&self) -> sc_cluster::CheckpointPolicy {
        sc_cluster::CheckpointPolicy {
            interval_secs: self.young_interval(),
            write_secs: self.write_secs,
        }
    }

    /// A config matching a failure model's observed mean time to
    /// interrupt, for closing the loop: measure MTTI from a goodput
    /// run, derive the optimal interval, re-run with checkpointing.
    pub fn for_mtti(mtti_secs: f64) -> Self {
        CheckpointConfig { write_secs: 30.0, mtti_secs }
    }
}

/// Outcome of applying checkpointing to the killed-work population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointStudy {
    /// The interval used, seconds.
    pub interval_secs: f64,
    /// GPU-hours lost without checkpointing (all work of jobs that died
    /// by failure or timeout).
    pub lost_hours_baseline: f64,
    /// GPU-hours lost with checkpointing (expected half-interval per
    /// victim) plus the checkpoint overhead paid by every job.
    pub lost_hours_checkpointed: f64,
    /// Overhead GPU-hours spent writing checkpoints.
    pub overhead_hours: f64,
    /// Net saving as a fraction of the baseline loss.
    pub saving_fraction: f64,
    /// Jobs that benefited (died involuntarily).
    pub victims: usize,
}

/// Runs the study over the analyzed jobs.
///
/// Victims are jobs whose exit is a failure, timeout, or node failure —
/// the populations the paper says lose state. Every GPU job pays the
/// periodic write overhead while running.
///
/// # Panics
///
/// Panics if `views` is empty or the interval is non-positive.
pub fn evaluate(views: &[GpuJobView<'_>], interval_secs: f64, write_secs: f64) -> CheckpointStudy {
    assert!(!views.is_empty(), "need jobs");
    assert!(interval_secs > 0.0, "interval must be positive");
    let mut lost_baseline = 0.0;
    let mut lost_ckpt = 0.0;
    let mut overhead = 0.0;
    let mut victims = 0;
    for v in views {
        let gpus = v.sched.gpus_requested as f64;
        let run = v.sched.run_time();
        // Overhead: one write every interval while running.
        overhead += (run / interval_secs) * write_secs * gpus / 3600.0;
        let dies = matches!(
            v.sched.exit,
            ExitStatus::Failed | ExitStatus::Timeout | ExitStatus::NodeFailure
        );
        if dies {
            victims += 1;
            lost_baseline += run * gpus / 3600.0;
            lost_ckpt += (interval_secs / 2.0).min(run) * gpus / 3600.0;
        }
    }
    let with_ckpt = lost_ckpt + overhead;
    CheckpointStudy {
        interval_secs,
        lost_hours_baseline: lost_baseline,
        lost_hours_checkpointed: with_ckpt,
        overhead_hours: overhead,
        saving_fraction: if lost_baseline > 0.0 {
            ((lost_baseline - with_ckpt) / lost_baseline).max(-1.0)
        } else {
            0.0
        },
        victims,
    }
}

/// Sweeps checkpoint intervals and returns `(interval, study)` rows.
pub fn sweep(views: &[GpuJobView<'_>], intervals: &[f64], write_secs: f64) -> Vec<CheckpointStudy> {
    intervals.iter().map(|&i| evaluate(views, i, write_secs)).collect()
}

/// Renders a sweep as a text table.
pub fn render(studies: &[CheckpointStudy]) -> String {
    let mut s = String::from(
        "Checkpoint/restart study:\n  interval(s)  lost-baseline(h)  lost-ckpt(h)  overhead(h)  saving%\n",
    );
    for st in studies {
        s.push_str(&format!(
            "  {:>10.0}  {:>16.1}  {:>12.1}  {:>11.1}  {:>6.1}\n",
            st.interval_secs,
            st.lost_hours_baseline,
            st.lost_hours_checkpointed,
            st.overhead_hours,
            st.saving_fraction * 100.0
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_interval_formula() {
        let cfg = CheckpointConfig { write_secs: 30.0, mtti_secs: 43_200.0 };
        let tau = cfg.young_interval();
        assert!((tau - (2.0f64 * 30.0 * 43_200.0).sqrt()).abs() < 1e-9);
        assert!(tau > 1000.0 && tau < 3000.0);
    }

    #[test]
    #[should_panic(expected = "parameters must be positive")]
    fn young_rejects_zero() {
        let _ = CheckpointConfig { write_secs: 0.0, mtti_secs: 1.0 }.young_interval();
    }

    #[test]
    fn sim_policy_carries_young_interval_into_the_event_loop() {
        let cfg = CheckpointConfig::for_mtti(43_200.0);
        let policy = cfg.sim_policy();
        assert_eq!(policy.interval_secs, cfg.young_interval());
        assert_eq!(policy.write_secs, cfg.write_secs);
        // The policy is the type the simulator consumes.
        let sim_cfg =
            sc_cluster::SimConfig { checkpoint: Some(policy), ..sc_cluster::SimConfig::default() };
        assert!(sim_cfg.checkpoint.is_some());
    }
}

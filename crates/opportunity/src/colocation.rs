//! GPU co-location policies (Sec. III takeaways; related work:
//! Gandiva's time-sharing, GSLICE/Gavel's space-sharing).
//!
//! The paper's opening for this study: "Most GPU-accelerated jobs tend
//! to have low utilization … This property indicates the opportunity to
//! share non-contending GPU resources among concurrent jobs", tempered
//! by "resource utilization can vary greatly during job execution …
//! resource sharing techniques should consider the temporal variations
//! and bottlenecks".
//!
//! This module pairs jobs on one GPU and *simulates the contention*
//! over their piecewise phase processes: in every overlapped segment
//! the jobs' demands add, and when a resource oversubscribes both jobs
//! slow proportionally. That makes the trade the paper describes
//! measurable: packing raises machine throughput while interference
//! stretches individual jobs.

use sc_telemetry::metrics::GpuResource;
use sc_workload::{GpuGroundTruth, PowerModel};

/// How candidate jobs are paired onto GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairingPolicy {
    /// No sharing: every job gets a dedicated GPU (the production
    /// baseline — "Supercloud does not co-locate jobs on the same GPU").
    Exclusive,
    /// Adjacent jobs in submission order share, blind to utilization.
    Fifo,
    /// Jobs sorted by mean SM utilization, then the least-utilizing job
    /// is paired with the most-utilizing one (the paper's
    /// "non-contending" heuristic).
    UtilizationAware,
    /// Gandiva-style time-sharing of FIFO pairs: only one job owns the
    /// GPU at a time, swapped at phase boundaries; a job's idle (data /
    /// CPU) phases proceed without the GPU, which is where the win
    /// comes from.
    TimeSharing,
}

/// One co-located pair's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairOutcome {
    /// Slowdown of the first job (≥ 1).
    pub slowdown_a: f64,
    /// Slowdown of the second job (≥ 1).
    pub slowdown_b: f64,
    /// GPU-time saved versus running the two jobs back to back on one
    /// GPU: `(t_a + t_b - makespan) / (t_a + t_b)`.
    pub packing_gain: f64,
}

/// Aggregate results of one policy over a job population.
#[derive(Debug, Clone, PartialEq)]
pub struct ColocationResult {
    /// The policy evaluated.
    pub policy: PairingPolicy,
    /// Number of pairs formed.
    pub pairs: usize,
    /// Mean job slowdown across all co-located jobs.
    pub mean_slowdown: f64,
    /// 95th-percentile job slowdown.
    pub p95_slowdown: f64,
    /// Throughput relative to exclusive GPUs: jobs completed per
    /// GPU-second, normalized to the exclusive baseline.
    pub relative_throughput: f64,
}

/// Simulates two jobs sharing one GPU.
///
/// Both jobs run concurrently from `t = 0`. In each merged phase
/// segment, per-resource demands add; if a resource's total exceeds
/// 100%, both jobs' progress rates in that segment scale by
/// `100 / total` for the worst such resource (the GPU rounds down to
/// the binding constraint). Each job finishes when it accumulates its
/// standalone duration of progress.
///
/// Returns the pair outcome; `duration_a/b` are the jobs' standalone
/// run times (seconds).
///
/// # Panics
///
/// Panics if either duration is not positive.
pub fn simulate_pair(
    a: &GpuGroundTruth,
    b: &GpuGroundTruth,
    duration_a: f64,
    duration_b: f64,
) -> PairOutcome {
    assert!(duration_a > 0.0 && duration_b > 0.0, "durations must be positive");
    let power = PowerModel::v100();
    // March wall-clock time over merged phase boundaries, tracking each
    // job's accumulated progress (in its own job-relative seconds).
    let mut wall = 0.0f64;
    let mut progress_a = 0.0f64;
    let mut progress_b = 0.0f64;
    let mut end_a = None;
    let mut end_b = None;
    // Resolution: sub-sample phases at fixed steps for simplicity and
    // robustness (phase boundaries are irregular between the two jobs).
    // A 5-second step resolves every phase the generator emits (minimum
    // phase length 1 s appears only at truncation).
    const STEP: f64 = 5.0;
    let max_wall = (duration_a + duration_b) * 2.0 + 60.0;
    while (end_a.is_none() || end_b.is_none()) && wall < max_wall {
        let a_running = end_a.is_none();
        let b_running = end_b.is_none();
        let sa = if a_running {
            Some(a.state_at(progress_a.min(duration_a - 1e-6).max(0.0), &power))
        } else {
            None
        };
        let sb = if b_running {
            Some(b.state_at(progress_b.min(duration_b - 1e-6).max(0.0), &power))
        } else {
            None
        };
        // Worst oversubscription across contended resources.
        let mut scale = 1.0f64;
        if let (Some(sa), Some(sb)) = (&sa, &sb) {
            for r in GpuResource::UTILIZATION {
                let total = sa.resource(r) + sb.resource(r);
                if total > 100.0 {
                    scale = scale.min(100.0 / total);
                }
            }
        }
        if a_running {
            progress_a += STEP * scale;
            if progress_a >= duration_a {
                end_a = Some(wall + STEP);
            }
        }
        if b_running {
            progress_b += STEP * scale;
            if progress_b >= duration_b {
                end_b = Some(wall + STEP);
            }
        }
        wall += STEP;
    }
    let end_a = end_a.unwrap_or(max_wall);
    let end_b = end_b.unwrap_or(max_wall);
    let makespan = end_a.max(end_b);
    PairOutcome {
        slowdown_a: end_a / duration_a,
        slowdown_b: end_b / duration_b,
        packing_gain: ((duration_a + duration_b - makespan) / (duration_a + duration_b)).max(0.0),
    }
}

/// Simulates Gandiva-style time-sharing: the GPU is granted to at most
/// one job per step; a job in an idle phase progresses without the GPU
/// (its data pipeline runs on the host), and when both jobs want the
/// GPU they alternate.
///
/// # Panics
///
/// Panics if either duration is not positive.
pub fn simulate_time_shared_pair(
    a: &GpuGroundTruth,
    b: &GpuGroundTruth,
    duration_a: f64,
    duration_b: f64,
) -> PairOutcome {
    assert!(duration_a > 0.0 && duration_b > 0.0, "durations must be positive");
    const STEP: f64 = 5.0;
    let active = |t: &GpuGroundTruth, progress: f64, cap: f64| -> bool {
        t.phase_at(progress.min(cap - 1e-6).max(0.0)).active
    };
    let mut wall = 0.0f64;
    let mut progress_a = 0.0f64;
    let mut progress_b = 0.0f64;
    let mut end_a: Option<f64> = None;
    let mut end_b: Option<f64> = None;
    let mut turn_a = true; // round-robin owner when both contend
    let max_wall = (duration_a + duration_b) * 2.0 + 60.0;
    while (end_a.is_none() || end_b.is_none()) && wall < max_wall {
        let a_runs = end_a.is_none();
        let b_runs = end_b.is_none();
        let a_active = a_runs && active(a, progress_a, duration_a);
        let b_active = b_runs && active(b, progress_b, duration_b);
        let (adv_a, adv_b) = match (a_active, b_active) {
            (true, true) => {
                // Contention: the owner advances; the other stalls.
                turn_a = !turn_a;
                if turn_a {
                    (a_runs, false)
                } else {
                    (false, b_runs)
                }
            }
            // Idle phases (or a finished peer) cost nothing.
            _ => (a_runs, b_runs),
        };
        if adv_a {
            progress_a += STEP;
            if progress_a >= duration_a {
                end_a = Some(wall + STEP);
            }
        }
        if adv_b {
            progress_b += STEP;
            if progress_b >= duration_b {
                end_b = Some(wall + STEP);
            }
        }
        wall += STEP;
    }
    let end_a = end_a.unwrap_or(max_wall);
    let end_b = end_b.unwrap_or(max_wall);
    let makespan = end_a.max(end_b);
    PairOutcome {
        slowdown_a: end_a / duration_a,
        slowdown_b: end_b / duration_b,
        packing_gain: ((duration_a + duration_b - makespan) / (duration_a + duration_b)).max(0.0),
    }
}

/// A co-location candidate: a job's single-GPU ground truth and its
/// standalone duration.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The GPU process.
    pub truth: GpuGroundTruth,
    /// Standalone run time, seconds.
    pub duration: f64,
    /// Job-mean SM utilization (pairing key).
    pub mean_sm: f64,
}

/// Evaluates a pairing policy over candidates.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn evaluate_policy(candidates: &[Candidate], policy: PairingPolicy) -> ColocationResult {
    assert!(!candidates.is_empty(), "need candidates");
    if policy == PairingPolicy::Exclusive {
        return ColocationResult {
            policy,
            pairs: 0,
            mean_slowdown: 1.0,
            p95_slowdown: 1.0,
            relative_throughput: 1.0,
        };
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    if policy == PairingPolicy::UtilizationAware {
        order.sort_by(|&x, &y| {
            candidates[x].mean_sm.partial_cmp(&candidates[y].mean_sm).expect("finite utilization")
        });
    }
    // Pair extremes for utilization-aware (low with high); adjacent for
    // FIFO.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    match policy {
        PairingPolicy::UtilizationAware => {
            let mut lo = 0;
            let mut hi = order.len() - 1;
            while lo < hi {
                pairs.push((order[lo], order[hi]));
                lo += 1;
                hi -= 1;
            }
        }
        _ => {
            for chunk in order.chunks(2) {
                if let [x, y] = chunk {
                    pairs.push((*x, *y));
                }
            }
        }
    }
    let mut slowdowns = Vec::with_capacity(pairs.len() * 2);
    let mut gpu_seconds_shared = 0.0;
    let mut gpu_seconds_exclusive = 0.0;
    for &(x, y) in &pairs {
        let (a, b) = (&candidates[x], &candidates[y]);
        let out = if policy == PairingPolicy::TimeSharing {
            simulate_time_shared_pair(&a.truth, &b.truth, a.duration, b.duration)
        } else {
            simulate_pair(&a.truth, &b.truth, a.duration, b.duration)
        };
        slowdowns.push(out.slowdown_a);
        slowdowns.push(out.slowdown_b);
        // One shared GPU busy for the makespan vs two exclusive GPUs.
        let makespan = (out.slowdown_a * a.duration).max(out.slowdown_b * b.duration);
        gpu_seconds_shared += makespan;
        gpu_seconds_exclusive += a.duration.max(b.duration);
    }
    slowdowns.sort_by(|p, q| p.partial_cmp(q).expect("finite"));
    let mean = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
    let p95 = slowdowns[((slowdowns.len() - 1) as f64 * 0.95) as usize];
    // Exclusive: 2 GPUs for max(t_a, t_b) wall time finish the pair.
    // Shared: 1 GPU for the (stretched) makespan. Throughput ∝ jobs /
    // GPU-time.
    let relative_throughput = (2.0 * gpu_seconds_exclusive) / gpu_seconds_shared.max(1e-9);
    ColocationResult {
        policy,
        pairs: pairs.len(),
        mean_slowdown: mean,
        p95_slowdown: p95,
        relative_throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sc_workload::{ResourceLevels, TruthParams};

    fn truth(seed: u64, sm: f64, active: f64, duration: f64) -> GpuGroundTruth {
        let mut rng = StdRng::seed_from_u64(seed);
        sc_workload::truth::generate_gpu_truth(
            &mut rng,
            &TruthParams {
                duration,
                active_fraction: active,
                mean_levels: ResourceLevels {
                    sm,
                    mem: sm / 8.0,
                    mem_size: sm / 3.0,
                    pcie_tx: 5.0,
                    pcie_rx: 5.0,
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn idle_pair_runs_without_interference() {
        let a = truth(1, 5.0, 0.3, 1200.0);
        let b = truth(2, 5.0, 0.3, 1200.0);
        let out = simulate_pair(&a, &b, 1000.0, 1000.0);
        assert!(out.slowdown_a < 1.05, "slowdown {}", out.slowdown_a);
        assert!(out.slowdown_b < 1.05);
        assert!(out.packing_gain > 0.3, "gain {}", out.packing_gain);
    }

    #[test]
    fn saturated_pair_interferes() {
        let a = truth(3, 70.0, 0.95, 2400.0);
        let b = truth(4, 70.0, 0.95, 2400.0);
        let out = simulate_pair(&a, &b, 2000.0, 2000.0);
        assert!(out.slowdown_a > 1.15, "slowdown {}", out.slowdown_a);
    }

    #[test]
    fn complementary_pair_beats_symmetric_hot_pair() {
        let hot1 = truth(5, 75.0, 0.95, 2400.0);
        let hot2 = truth(6, 75.0, 0.95, 2400.0);
        let cold = truth(7, 3.0, 0.2, 2400.0);
        let hot_hot = simulate_pair(&hot1, &hot2, 2000.0, 2000.0);
        let hot_cold = simulate_pair(&hot1, &cold, 2000.0, 2000.0);
        assert!(hot_cold.slowdown_a < hot_hot.slowdown_a);
    }

    #[test]
    fn utilization_aware_policy_reduces_slowdown() {
        let mut candidates = Vec::new();
        for i in 0..12 {
            let sm = if i % 2 == 0 { 70.0 } else { 4.0 };
            candidates.push(Candidate {
                truth: truth(100 + i, sm, 0.9, 2000.0),
                duration: 1500.0,
                mean_sm: sm,
            });
        }
        // FIFO order alternates hot/cold... shuffle it so FIFO pairs
        // hot-with-hot occasionally: sort by index parity.
        candidates.sort_by_key(|c| c.mean_sm as i64);
        // Now FIFO pairs cold-cold then hot-hot; aware pairs cold-hot.
        let fifo = evaluate_policy(&candidates, PairingPolicy::Fifo);
        let aware = evaluate_policy(&candidates, PairingPolicy::UtilizationAware);
        assert!(
            aware.p95_slowdown <= fifo.p95_slowdown + 1e-9,
            "aware p95 {} vs fifo {}",
            aware.p95_slowdown,
            fifo.p95_slowdown
        );
        assert!(aware.pairs == 6 && fifo.pairs == 6);
    }

    #[test]
    fn time_sharing_never_oversubscribes() {
        // Two fully-active jobs time-shared: each gets half the GPU, so
        // each roughly doubles — but the makespan equals back-to-back
        // execution, never worse.
        let a = truth(31, 80.0, 0.98, 2400.0);
        let b = truth(32, 80.0, 0.98, 2400.0);
        let out = simulate_time_shared_pair(&a, &b, 2000.0, 2000.0);
        assert!(out.slowdown_a > 1.5, "slowdown {}", out.slowdown_a);
        assert!(out.slowdown_a < 2.2, "slowdown {}", out.slowdown_a);
    }

    #[test]
    fn time_sharing_exploits_idle_phases() {
        // Bursty jobs (40% active): the peer runs during idle phases,
        // so slowdown stays well under the 2× of pure alternation.
        let a = truth(33, 30.0, 0.4, 3000.0);
        let b = truth(34, 30.0, 0.4, 3000.0);
        let out = simulate_time_shared_pair(&a, &b, 2500.0, 2500.0);
        assert!(out.slowdown_a < 1.6, "slowdown {}", out.slowdown_a);
        assert!(out.packing_gain > 0.2, "gain {}", out.packing_gain);
    }

    #[test]
    fn exclusive_baseline_is_identity() {
        let candidates =
            vec![Candidate { truth: truth(9, 10.0, 0.5, 600.0), duration: 500.0, mean_sm: 10.0 }];
        let r = evaluate_policy(&candidates, PairingPolicy::Exclusive);
        assert_eq!(r.mean_slowdown, 1.0);
        assert_eq!(r.relative_throughput, 1.0);
    }

    #[test]
    fn sharing_raises_throughput_for_low_util_jobs() {
        let mut candidates = Vec::new();
        for i in 0..10 {
            candidates.push(Candidate {
                truth: truth(200 + i, 8.0, 0.4, 2000.0),
                duration: 1500.0,
                mean_sm: 8.0,
            });
        }
        let fifo = evaluate_policy(&candidates, PairingPolicy::Fifo);
        assert!(fifo.relative_throughput > 1.2, "throughput {}", fifo.relative_throughput);
        assert!(fifo.mean_slowdown < 1.2);
    }
}

//! Deterministic labeled dataset construction from a synthesized trace.
//!
//! Every GPU job in a trace carries a hidden ground-truth archetype;
//! this module samples a bounded subset of them, extracts features in
//! parallel (index-ordered, so byte-identical at any `SC_PAR_THREADS`
//! budget), and splits train/test. Both the subsample and the split
//! hash off each job's `truth_seed` — pure functions of the job, so
//! the same trace always yields the same dataset, independent of
//! iteration order, thread budget, or any RNG stream.

use sc_telemetry::record::JobId;
use sc_workload::{JobSpec, Trace, WorkloadArchetype};

use crate::features::{job_features, FEATURE_COUNT};
use crate::{hash_unit, ClassifierConfig};

/// Salt for the keep/drop subsampling hash.
const SUBSAMPLE_SALT: u64 = 0xc1a5_51f1_0000_0001;
/// Salt for the train/test split hash.
const SPLIT_SALT: u64 = 0xc1a5_51f1_0000_0002;

/// One labeled job: its hidden archetype and extracted features.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The job the sample came from.
    pub job_id: JobId,
    /// Ground-truth archetype (the label).
    pub label: WorkloadArchetype,
    /// Extracted feature vector (see [`crate::features::FEATURE_NAMES`]).
    pub features: [f64; FEATURE_COUNT],
}

/// A deterministic train/test split of labeled samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Training samples.
    pub train: Vec<Sample>,
    /// Held-out evaluation samples.
    pub test: Vec<Sample>,
}

impl Dataset {
    /// Total samples across both splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len()
    }

    /// Whether the dataset holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty() && self.test.is_empty()
    }

    /// Per-class sample counts over both splits, in archetype-index
    /// order.
    pub fn class_counts(&self) -> [usize; WorkloadArchetype::ALL.len()] {
        let mut counts = [0usize; WorkloadArchetype::ALL.len()];
        for s in self.train.iter().chain(&self.test) {
            counts[s.label.index()] += 1;
        }
        counts
    }
}

/// Builds the labeled dataset for `trace`: deterministic subsample to
/// at most [`max_jobs`](ClassifierConfig::max_jobs) labeled GPU jobs,
/// parallel feature extraction, hash-based train/test split.
pub fn build_dataset(trace: &Trace, cfg: &ClassifierConfig) -> Dataset {
    let candidates: Vec<(&JobSpec, WorkloadArchetype)> = trace
        .jobs()
        .iter()
        .filter(|j| j.truth_params.is_some())
        .filter_map(|j| Some((j, j.archetype?)))
        .collect();
    if candidates.is_empty() {
        return Dataset::default();
    }
    let keep_prob = (cfg.max_jobs as f64 / candidates.len() as f64).min(1.0);
    let selected: Vec<(&JobSpec, WorkloadArchetype)> = candidates
        .into_iter()
        .filter(|(j, _)| hash_unit(j.truth_seed ^ SUBSAMPLE_SALT) < keep_prob)
        .collect();
    let features = sc_par::par_map(&selected, |(j, _)| job_features(j, cfg));
    let mut out = Dataset::default();
    for (&(job, label), feats) in selected.iter().zip(features) {
        let Some(features) = feats else { continue };
        let sample = Sample { job_id: job.job_id, label, features };
        if hash_unit(job.truth_seed ^ SPLIT_SALT) < cfg.train_fraction {
            out.train.push(sample);
        } else {
            out.test.push(sample);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_workload::WorkloadSpec;

    fn small_trace() -> Trace {
        Trace::generate(&WorkloadSpec::supercloud().scaled(0.004), 9)
    }

    #[test]
    fn dataset_is_deterministic_and_split_matches_fraction() {
        let trace = small_trace();
        let cfg = ClassifierConfig { max_jobs: 200, ..Default::default() };
        let a = build_dataset(&trace, &cfg);
        let b = build_dataset(&trace, &cfg);
        assert_eq!(a, b, "same trace and config must give the same dataset");
        assert!(!a.is_empty());
        assert!(a.len() <= 260, "subsample respects the cap (with hash slack): {}", a.len());
        let frac = a.train.len() as f64 / a.len() as f64;
        assert!((frac - 0.7).abs() < 0.12, "train fraction {frac} far from 0.7");
    }

    #[test]
    fn every_archetype_is_represented() {
        let trace = small_trace();
        let ds = build_dataset(&trace, &ClassifierConfig::default());
        let counts = ds.class_counts();
        assert!(counts.iter().all(|c| *c > 0), "missing classes: {counts:?}");
    }

    #[test]
    fn max_jobs_bounds_the_sample() {
        let trace = small_trace();
        let all = build_dataset(&trace, &ClassifierConfig::default());
        let capped =
            build_dataset(&trace, &ClassifierConfig { max_jobs: 50, ..Default::default() });
        assert!(capped.len() < all.len());
        assert!(capped.len() <= 80, "{}", capped.len());
    }
}

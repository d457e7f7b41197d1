//! Workload-archetype classification over synthesized telemetry.
//!
//! The HPCA 2022 paper characterizes what jobs on a large
//! GPU-accelerated system *do* — utilization waves, active/idle phase
//! structure, ramps — and poses recognizing what a job *is* as the
//! natural next step for AI-enabling systems telemetry (Sec. VII;
//! see also Weiss et al., arXiv:2204.05839). This crate closes that
//! loop inside the reproduction:
//!
//! 1. `sc-workload` stamps every GPU job with a hidden ground-truth
//!    [`WorkloadArchetype`](sc_workload::WorkloadArchetype) whose
//!    telemetry signature (wave period, plateau length, burstiness)
//!    the samplers honor bit-identically in batch and streaming form.
//! 2. [`features`] folds a job's sampled `[sm, mem, mem_size]` series
//!    into a fixed-width feature vector, incrementally, through the
//!    same [`Util3Sink`](sc_telemetry::stream::Util3Sink) streaming
//!    interface the telemetry pipeline uses.
//! 3. [`forest`] and [`centroid`] are from-scratch, dependency-free
//!    classifiers (a seeded CART decision forest and a z-scored
//!    nearest-centroid baseline) trained on a deterministic split.
//! 4. [`predictor`] packages the trained forest behind
//!    [`ArchetypePredictor`], the hook `sc-policy` uses to route
//!    placement decisions on *predicted* rather than oracle labels.
//!
//! Everything is deterministic: dataset subsampling and the
//! train/test split hash off each job's `truth_seed`, tree bagging
//! uses an explicit SplitMix64 stream, and parallel feature
//! extraction is index-ordered — so reports are byte-identical at any
//! `SC_PAR_THREADS` budget.

// Library code must surface degenerate inputs as typed errors, not
// panics; tests are exempt (unwrap there is an assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod centroid;
pub mod dataset;
pub mod eval;
pub mod features;
pub mod forest;
pub mod predictor;

pub use centroid::NearestCentroid;
pub use dataset::{build_dataset, Dataset, Sample};
pub use eval::{evaluate, ClassScore, EvalReport};
pub use features::{job_features, FeatureSink, FEATURE_COUNT, FEATURE_NAMES};
pub use forest::Forest;
pub use predictor::ArchetypePredictor;

/// Classifier hyper-parameters and dataset-construction knobs.
///
/// The defaults here are the single source of truth: the scenario
/// DSL's `[classifier]` section and the CLI flags both default to
/// exactly these values.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierConfig {
    /// Trees in the decision forest.
    pub trees: usize,
    /// Seed for bagging and per-split feature subsampling.
    pub seed: u64,
    /// Fraction of sampled jobs assigned to the training split.
    pub train_fraction: f64,
    /// Deterministic cap on jobs sampled into the dataset (feature
    /// extraction streams every job's series; this bounds the work).
    pub max_jobs: usize,
    /// Telemetry sampling period for feature extraction, seconds.
    pub period_secs: f64,
    /// Features are extracted from at most this long a prefix of each
    /// job's run, seconds — the online setting where a job must be
    /// recognized from its first hour, not its whole life.
    pub window_secs: f64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            trees: 15,
            seed: 71,
            train_fraction: 0.7,
            max_jobs: 1500,
            period_secs: 1.0,
            window_secs: 3600.0,
        }
    }
}

/// The seeded hashes behind every draw that must not consume an RNG
/// stream (forest bootstraps, feature jitter, the train/test split).
pub(crate) use sc_stats::hash::{fmix64, hash_unit};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_unit_is_uniform_ish_and_deterministic() {
        let vals: Vec<f64> = (0..4096u64).map(|i| hash_unit(i.wrapping_mul(0x9e37))).collect();
        assert!(vals.iter().all(|v| (0.0..1.0).contains(v)));
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
        assert_eq!(hash_unit(42), hash_unit(42));
        assert_ne!(hash_unit(42), hash_unit(43));
    }

    #[test]
    fn default_config_matches_documented_values() {
        let c = ClassifierConfig::default();
        assert_eq!((c.trees, c.seed, c.max_jobs), (15, 71, 1500));
        assert_eq!((c.train_fraction, c.period_secs, c.window_secs), (0.7, 1.0, 3600.0));
    }
}

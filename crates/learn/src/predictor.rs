//! The trained classifier packaged for closed-loop use.

use sc_stats::StatsError;
use sc_workload::{JobSpec, Trace, WorkloadArchetype};

use crate::centroid::NearestCentroid;
use crate::dataset::build_dataset;
use crate::eval::{evaluate, EvalReport};
use crate::features::job_features;
use crate::forest::Forest;
use crate::ClassifierConfig;

/// A trained archetype classifier plus the feature-extraction config
/// it was trained with — the hook `sc-policy` routes placement on.
#[derive(Debug, Clone)]
pub struct ArchetypePredictor {
    forest: Forest,
    cfg: ClassifierConfig,
}

impl ArchetypePredictor {
    /// Trains the forest (and the centroid baseline) on `trace`'s
    /// deterministic dataset and returns the predictor together with
    /// its held-out evaluation.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] when the trace leaves either split
    /// without a labeled GPU job.
    pub fn train(
        trace: &Trace,
        cfg: &ClassifierConfig,
    ) -> Result<(ArchetypePredictor, EvalReport), StatsError> {
        let dataset = build_dataset(trace, cfg);
        if dataset.train.is_empty() || dataset.test.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let forest = Forest::train(&dataset.train, cfg.trees, cfg.seed);
        let centroid = NearestCentroid::train(&dataset.train);
        let report = evaluate(&forest, &centroid, &dataset);
        Ok((ArchetypePredictor { forest, cfg: cfg.clone() }, report))
    }

    /// Predicts the archetype of one job from its streamed telemetry
    /// features. Returns `None` for jobs without GPU ground truth.
    pub fn predict_job(&self, job: &JobSpec) -> Option<WorkloadArchetype> {
        Some(self.forest.predict(&job_features(job, &self.cfg)?))
    }

    /// The configuration the predictor was trained with.
    pub fn config(&self) -> &ClassifierConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_workload::WorkloadSpec;

    fn small_trace() -> Trace {
        Trace::generate(&WorkloadSpec::supercloud().scaled(0.004), 17)
    }

    #[test]
    fn trains_and_beats_chance_by_a_wide_margin() {
        let trace = small_trace();
        let (predictor, report) =
            ArchetypePredictor::train(&trace, &ClassifierConfig::default()).unwrap();
        assert!(
            report.accuracy > 0.6,
            "archetypes should be recognizable from their signatures: {:?}",
            report.confusion
        );
        assert!(report.test_count > 20);
        let gpu = trace.gpu_jobs().next().expect("trace has GPU jobs");
        let predicted = predictor.predict_job(gpu).expect("GPU job has features");
        assert!(WorkloadArchetype::ALL.contains(&predicted));
    }

    #[test]
    fn cpu_jobs_have_no_prediction() {
        let trace = small_trace();
        let (predictor, _) =
            ArchetypePredictor::train(&trace, &ClassifierConfig::default()).unwrap();
        let cpu = trace.jobs().iter().find(|j| j.truth_params.is_none()).expect("cpu job");
        assert_eq!(predictor.predict_job(cpu), None);
    }

    #[test]
    fn training_is_deterministic() {
        let trace = small_trace();
        let cfg = ClassifierConfig::default();
        let (_, a) = ArchetypePredictor::train(&trace, &cfg).unwrap();
        let (_, b) = ArchetypePredictor::train(&trace, &cfg).unwrap();
        assert_eq!(a, b, "same trace + config must evaluate identically");
    }
}

//! User-behaviour prediction baselines (Sec. IV takeaway).
//!
//! "This makes it difficult to predict the behavior of individual
//! users. This is an opportunity for designing new strategies to apply
//! ML-based techniques to predict user behavior." Before reaching for
//! ML, a resource manager would try the classical estimators — last
//! value, per-user running mean, global median. This module measures
//! how badly they do on the simulated population, *quantifying* the
//! paper's claim that per-user history barely beats global statistics
//! when within-user CoV is ~155%.

use sc_core::GpuJobView;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The estimators compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Predictor {
    /// Predict the user's previous job's value.
    LastValue,
    /// Predict the running mean of the user's previous jobs.
    UserMean,
    /// Predict the running median of all jobs seen so far, any user.
    GlobalMedian,
}

impl Predictor {
    /// All predictors in presentation order.
    pub const ALL: [Predictor; 3] =
        [Predictor::LastValue, Predictor::UserMean, Predictor::GlobalMedian];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Predictor::LastValue => "last-value",
            Predictor::UserMean => "user-mean",
            Predictor::GlobalMedian => "global-median",
        }
    }
}

/// Accuracy of one predictor on one target metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorScore {
    /// The estimator.
    pub predictor: Predictor,
    /// Median absolute percentage error over all predictions.
    pub median_ape: f64,
    /// Fraction of predictions within 2× of the truth (the accuracy a
    /// backfill scheduler would need from a wall-time estimate).
    pub within_2x: f64,
    /// Number of predictions scored.
    pub predictions: usize,
}

/// The prediction study over run times and SM utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionStudy {
    /// Run-time prediction scores.
    pub runtime: Vec<PredictorScore>,
    /// Job-mean SM utilization prediction scores.
    pub sm_util: Vec<PredictorScore>,
}

/// The running median of a stream of positive values: the element at
/// index `len / 2` of the values seen so far, sorted.
///
/// The larger `ceil(len / 2)` values sit in a min-heap whose top is
/// that element, the rest in a max-heap. Positive floats order like
/// their bit patterns, so both heaps hold `f64::to_bits`.
#[derive(Debug, Default)]
struct RunningMedian {
    low: BinaryHeap<u64>,
    high: BinaryHeap<Reverse<u64>>,
}

impl RunningMedian {
    fn get(&self) -> Option<f64> {
        self.high.peek().map(|&Reverse(bits)| f64::from_bits(bits))
    }

    fn push(&mut self, value: f64) {
        debug_assert!(value > 0.0, "running median over positive values, got {value}");
        let bits = value.to_bits();
        match self.high.peek() {
            Some(&Reverse(top)) if bits < top => self.low.push(bits),
            _ => self.high.push(Reverse(bits)),
        }
        if self.low.len() > self.high.len() {
            let moved = self.low.pop().map(Reverse);
            self.high.extend(moved);
        } else if self.high.len() > self.low.len() + 1 {
            let moved = self.high.pop().map(|Reverse(bits)| bits);
            self.low.extend(moved);
        }
    }
}

fn score<F: Fn(&GpuJobView) -> f64>(
    views: &[GpuJobView<'_>],
    value: F,
    predictor: Predictor,
) -> PredictorScore {
    // Jobs in submission order (trace ids are submission-ordered).
    let mut order: Vec<&GpuJobView> = views.iter().collect();
    order.sort_by_key(|v| v.sched.job_id);
    let mut last: HashMap<_, f64> = HashMap::new();
    let mut sums: HashMap<_, (f64, usize)> = HashMap::new();
    let mut global = RunningMedian::default();
    let mut apes: Vec<f64> = Vec::new();
    let mut hits = 0usize;
    let mut n = 0usize;
    for v in order {
        let truth = value(v).max(1e-9);
        let prediction = match predictor {
            Predictor::LastValue => last.get(&v.sched.user).copied(),
            Predictor::UserMean => sums.get(&v.sched.user).map(|(s, c)| s / *c as f64),
            Predictor::GlobalMedian => global.get(),
        };
        if let Some(p) = prediction {
            let ape = (p - truth).abs() / truth;
            apes.push(ape);
            if truth / 2.0 <= p && p <= truth * 2.0 {
                hits += 1;
            }
            n += 1;
        }
        last.insert(v.sched.user, truth);
        let e = sums.entry(v.sched.user).or_insert((0.0, 0));
        e.0 += truth;
        e.1 += 1;
        if predictor == Predictor::GlobalMedian {
            global.push(truth);
        }
    }
    apes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    PredictorScore {
        predictor,
        median_ape: apes.get(apes.len().saturating_sub(1) / 2).copied().unwrap_or(f64::NAN),
        within_2x: if n > 0 { hits as f64 / n as f64 } else { 0.0 },
        predictions: n,
    }
}

/// Runs the study.
///
/// # Panics
///
/// Panics if `views` is empty.
pub fn evaluate(views: &[GpuJobView<'_>]) -> PredictionStudy {
    assert!(!views.is_empty(), "need jobs");
    let runtime = Predictor::ALL.iter().map(|&p| score(views, |v| v.sched.run_time(), p)).collect();
    let sm_util = Predictor::ALL.iter().map(|&p| score(views, |v| v.agg.sm_util.mean, p)).collect();
    PredictionStudy { runtime, sm_util }
}

/// Renders the study as text.
pub fn render(study: &PredictionStudy) -> String {
    let mut s = String::from(
        "User-behaviour prediction baselines:\n  target    predictor       median-APE  within-2x\n",
    );
    for (target, scores) in [("runtime", &study.runtime), ("SM util", &study.sm_util)] {
        for sc in scores {
            s.push_str(&format!(
                "  {:<8}  {:<14} {:>9.1}%  {:>8.1}%\n",
                target,
                sc.predictor.label(),
                sc.median_ape * 100.0,
                sc.within_2x * 100.0
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        #[test]
        fn prop_running_median_matches_the_sorted_insert(
            raw in proptest::collection::vec(0u32..64, 0..300),
            scale in 1e-3..1e6f64,
        ) {
            // Few distinct values, so runs carry many ties.
            let mut median = RunningMedian::default();
            let mut sorted: Vec<f64> = Vec::new();
            for r in raw {
                let value = (1 + r % 16) as f64 * scale;
                median.push(value);
                let pos = sorted.partition_point(|g| *g < value);
                sorted.insert(pos, value);
                proptest::prop_assert_eq!(median.get(), Some(sorted[sorted.len() / 2]));
            }
        }
    }

    #[test]
    fn predictor_labels_unique() {
        let labels: Vec<_> = Predictor::ALL.iter().map(|p| p.label()).collect();
        let mut d = labels.clone();
        d.dedup();
        assert_eq!(labels.len(), d.len());
    }
}

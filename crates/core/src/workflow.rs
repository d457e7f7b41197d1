//! The algorithm-development workflow of Fig. 2, recovered from the
//! trace.
//!
//! Fig. 2 sketches a typical user's interaction loop: design in an IDE
//! session → develop/debug → explore hyper-parameters → finalize
//! (mature), with back-edges everywhere. This module estimates that
//! workflow empirically as a Markov chain over consecutive jobs of the
//! same user: `P(next class | current class)`. The paper never fits
//! this chain, but its existence is the mechanism behind Sec. VI's
//! takeaways; exposing it makes the life-cycle story checkable.

use crate::view::{views_by_user, GpuJobView};
use sc_workload::LifecycleClass;

/// A first-order Markov chain over lifecycle classes.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowChain {
    /// `counts[i][j]`: transitions from class `i` to class `j`
    /// (indices in [`LifecycleClass::ALL`] order).
    pub counts: [[u64; 4]; 4],
    /// Number of users contributing transitions.
    pub users: usize,
}

impl WorkflowChain {
    /// Fits the chain from consecutive same-user jobs, ordered by
    /// submission (job ids are submission-ordered).
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty.
    pub fn fit(views: &[GpuJobView<'_>]) -> Self {
        assert!(!views.is_empty(), "need jobs");
        let by_user = views_by_user(views);
        let idx = |c: LifecycleClass| {
            LifecycleClass::ALL.iter().position(|k| *k == c).expect("known class")
        };
        let mut counts = [[0u64; 4]; 4];
        let mut users = 0;
        for (_, mut jobs) in by_user {
            if jobs.len() < 2 {
                continue;
            }
            users += 1;
            jobs.sort_by_key(|v| v.sched.job_id);
            for w in jobs.windows(2) {
                counts[idx(w[0].class)][idx(w[1].class)] += 1;
            }
        }
        WorkflowChain { counts, users }
    }

    /// Row-normalized transition probability `P(to | from)`; `None` if
    /// the `from` class was never observed.
    pub fn probability(&self, from: LifecycleClass, to: LifecycleClass) -> Option<f64> {
        let idx = |c: LifecycleClass| {
            LifecycleClass::ALL.iter().position(|k| *k == c).expect("known class")
        };
        let row = &self.counts[idx(from)];
        let total: u64 = row.iter().sum();
        if total == 0 {
            None
        } else {
            Some(row[idx(to)] as f64 / total as f64)
        }
    }

    /// Probability of staying in the same class on the next job — the
    /// "campaign persistence" of each workflow stage.
    pub fn self_transition(&self, class: LifecycleClass) -> Option<f64> {
        self.probability(class, class)
    }

    /// The stationary distribution of the chain (power iteration), or
    /// `None` if some class was never left or entered.
    pub fn stationary(&self) -> Option<[f64; 4]> {
        // Build the row-stochastic matrix.
        let mut p = [[0.0f64; 4]; 4];
        for (row, counts) in p.iter_mut().zip(&self.counts) {
            let total: u64 = counts.iter().sum();
            if total == 0 {
                return None;
            }
            for (cell, &c) in row.iter_mut().zip(counts) {
                *cell = c as f64 / total as f64;
            }
        }
        let mut v = [0.25f64; 4];
        for _ in 0..500 {
            let mut next = [0.0f64; 4];
            for (j, n) in next.iter_mut().enumerate() {
                for (i, vi) in v.iter().enumerate() {
                    *n += vi * p[i][j];
                }
            }
            let norm: f64 = next.iter().sum();
            for n in &mut next {
                *n /= norm;
            }
            let delta: f64 = next.iter().zip(&v).map(|(a, b)| (a - b).abs()).sum();
            v = next;
            if delta < 1e-12 {
                break;
            }
        }
        Some(v)
    }

    /// Renders the transition matrix as text.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "Fig. 2 workflow chain (P(next | current), fitted from consecutive same-user jobs):\n\
             \x20 from \\ to     mature  explor  devel   IDE\n",
        );
        for &from in &LifecycleClass::ALL {
            s.push_str(&format!("  {:<12}", from.to_string()));
            for &to in &LifecycleClass::ALL {
                match self.probability(from, to) {
                    Some(p) => s.push_str(&format!("  {:>5.2}", p)),
                    None => s.push_str("      -"),
                }
            }
            s.push('\n');
        }
        if let Some(st) = self.stationary() {
            s.push_str(&format!(
                "  stationary mix: mature {:.2}, exploratory {:.2}, development {:.2}, IDE {:.2}\n",
                st[0], st[1], st[2], st[3]
            ));
        }
        s.push_str(&format!("  ({} users with ≥2 jobs)\n", self.users));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_views;

    #[test]
    fn chain_rows_are_distributions() {
        let views = small_views();
        let chain = WorkflowChain::fit(&views);
        assert!(chain.users > 5);
        for &from in &LifecycleClass::ALL {
            let total: f64 =
                LifecycleClass::ALL.iter().filter_map(|&to| chain.probability(from, to)).sum();
            assert!(total == 0.0 || (total - 1.0).abs() < 1e-9, "row sums to {total}");
        }
    }

    #[test]
    fn campaigns_persist() {
        // User mixes are sticky (a tuning campaign produces runs of
        // exploratory jobs), so self-transitions beat the uniform 0.25
        // for the dominant class.
        let views = small_views();
        let chain = WorkflowChain::fit(&views);
        let mature_stay = chain.self_transition(LifecycleClass::Mature).expect("observed");
        assert!(mature_stay > 0.3, "P(mature→mature) = {mature_stay}");
    }

    #[test]
    fn stationary_matches_class_mix() {
        // The chain's stationary distribution must reproduce the
        // trace's job-class shares (it was fitted from them).
        let views = small_views();
        let chain = WorkflowChain::fit(&views);
        let st = chain.stationary().expect("all classes observed");
        let total = views.len() as f64;
        for (i, &class) in LifecycleClass::ALL.iter().enumerate() {
            let share = views.iter().filter(|v| v.class == class).count() as f64 / total;
            assert!((st[i] - share).abs() < 0.12, "{class}: stationary {} vs share {share}", st[i]);
        }
    }

    #[test]
    fn render_prints_matrix() {
        let views = small_views();
        let text = WorkflowChain::fit(&views).render();
        assert!(text.contains("from \\ to"));
        assert!(text.contains("stationary mix"));
    }
}

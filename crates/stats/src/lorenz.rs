//! Lorenz curves, Gini coefficients, and top-share statistics.
//!
//! Sec. IV of the paper: "While a median user submits 36 jobs, top 5% of
//! the users submit 44% of the jobs, and top 20% of the users submit
//! 83.2% of the jobs. This Pareto Principle is as expected…". [`Lorenz`]
//! quantifies exactly this concentration structure.

use crate::error::{ensure_sample, StatsError};

/// Concentration analysis of a non-negative quantity across a population
/// (jobs per user, GPU hours per user, …).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// use sc_stats::Lorenz;
///
/// // Jobs submitted by five users.
/// let l = Lorenz::new(vec![1.0, 2.0, 3.0, 4.0, 90.0])?;
/// // The single busiest user (top 20%) submitted 90% of jobs.
/// assert!((l.top_share(0.2) - 0.9).abs() < 1e-12);
/// assert!(l.gini() > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lorenz {
    /// Values sorted descending (largest contributor first).
    sorted_desc: Vec<f64>,
    total: f64,
}

impl Lorenz {
    /// Builds the analysis from per-individual totals.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`]/[`StatsError::NonFinite`] for
    /// invalid samples, and [`StatsError::InvalidParameter`] if any value
    /// is negative or the total is zero.
    pub fn new(mut values: Vec<f64>) -> Result<Self, StatsError> {
        ensure_sample(&values)?;
        if let Some(v) = values.iter().find(|v| **v < 0.0) {
            return Err(StatsError::InvalidParameter { name: "values", value: *v });
        }
        let total: f64 = values.iter().sum();
        if total == 0.0 {
            return Err(StatsError::InvalidParameter { name: "total", value: 0.0 });
        }
        values.sort_by(|a, b| b.partial_cmp(a).expect("values validated finite"));
        Ok(Lorenz { sorted_desc: values, total })
    }

    /// Number of individuals.
    pub fn population(&self) -> usize {
        self.sorted_desc.len()
    }

    /// Share of the total contributed by the top `fraction` of individuals
    /// (`fraction` in `(0, 1]`). The count of individuals is rounded up,
    /// so `top_share(0.05)` over 191 users considers the 10 busiest.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `(0, 1]`.
    pub fn top_share(&self, fraction: f64) -> f64 {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1], got {fraction}");
        let k = ((self.sorted_desc.len() as f64 * fraction).ceil() as usize)
            .clamp(1, self.sorted_desc.len());
        self.sorted_desc[..k].iter().sum::<f64>() / self.total
    }

    /// Gini coefficient in `[0, 1)`: 0 is perfect equality.
    pub fn gini(&self) -> f64 {
        // With values sorted descending, assign ascending order i=n..1.
        let n = self.sorted_desc.len() as f64;
        let mut weighted = 0.0;
        for (i, v) in self.sorted_desc.iter().enumerate() {
            // rank from largest: i=0 is the largest -> ascending rank n-i.
            let asc_rank = n - i as f64;
            weighted += asc_rank * v;
        }
        (2.0 * weighted / (n * self.total) - (n + 1.0) / n).abs()
    }

    /// The Lorenz curve as `(population fraction, cumulative share)`
    /// pairs in ascending population order (poorest first), starting at
    /// `(0, 0)` and ending at `(1, 1)`.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.sorted_desc.len();
        let mut pts = Vec::with_capacity(n + 1);
        pts.push((0.0, 0.0));
        let mut cum = 0.0;
        // Ascending order = iterate the descending vec in reverse.
        for (i, v) in self.sorted_desc.iter().rev().enumerate() {
            cum += v;
            pts.push(((i + 1) as f64 / n as f64, cum / self.total));
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_distribution_gini_near_zero() {
        let l = Lorenz::new(vec![10.0; 100]).unwrap();
        assert!(l.gini() < 0.011, "gini={}", l.gini());
        assert!((l.top_share(0.2) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn extreme_concentration() {
        let mut v = vec![0.0; 99];
        v.push(100.0);
        let l = Lorenz::new(v).unwrap();
        assert!((l.top_share(0.01) - 1.0).abs() < 1e-12);
        assert!(l.gini() > 0.98);
    }

    #[test]
    fn curve_endpoints_and_monotonicity() {
        let l = Lorenz::new(vec![5.0, 1.0, 3.0, 7.0]).unwrap();
        let c = l.curve();
        assert_eq!(c[0], (0.0, 0.0));
        let last = *c.last().unwrap();
        assert!((last.0 - 1.0).abs() < 1e-12 && (last.1 - 1.0).abs() < 1e-12);
        for w in c.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        // Lorenz curve lies below the diagonal.
        for (p, s) in &c {
            assert!(*s <= *p + 1e-9);
        }
    }

    #[test]
    fn rejects_negative_and_zero_total() {
        assert!(Lorenz::new(vec![-1.0, 2.0]).is_err());
        assert!(Lorenz::new(vec![0.0, 0.0]).is_err());
        assert!(Lorenz::new(vec![]).is_err());
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1]")]
    fn top_share_rejects_zero_fraction() {
        let l = Lorenz::new(vec![1.0, 2.0]).unwrap();
        let _ = l.top_share(0.0);
    }

    proptest! {
        #[test]
        fn prop_gini_in_unit_interval(values in proptest::collection::vec(0.0..1e5f64, 1..200)) {
            prop_assume!(values.iter().sum::<f64>() > 0.0);
            let l = Lorenz::new(values).unwrap();
            let g = l.gini();
            prop_assert!((0.0..=1.0).contains(&g), "gini={}", g);
        }

        #[test]
        fn prop_top_share_monotone_in_fraction(values in proptest::collection::vec(0.0..1e5f64, 2..200)) {
            prop_assume!(values.iter().sum::<f64>() > 0.0);
            let l = Lorenz::new(values).unwrap();
            let mut prev = 0.0;
            for k in 1..=10 {
                let s = l.top_share(k as f64 / 10.0);
                prop_assert!(s + 1e-12 >= prev);
                prev = s;
            }
            prop_assert!((l.top_share(1.0) - 1.0).abs() < 1e-9);
        }
    }
}

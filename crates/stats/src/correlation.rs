//! Rank and linear correlation.
//!
//! Fig. 12 of the paper correlates per-user job counts and GPU hours with
//! run-time/utilization averages and CoVs using **Spearman correlation**,
//! "which performs ranked linearity correlation and is useful for
//! detecting monotonic relationships", and reports that "all correlations
//! are statistically significant: p-value < 0.05".

use crate::error::{ensure_finite, StatsError};

/// Result of a Spearman rank-correlation test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpearmanResult {
    /// Spearman's rho in `[-1, 1]`.
    pub rho: f64,
    /// Two-sided p-value from the t-distribution approximation
    /// `t = rho * sqrt((n - 2) / (1 - rho^2))` with `n - 2` degrees of
    /// freedom (the approximation SciPy uses for n ≳ 10).
    pub p_value: f64,
    /// Sample size.
    pub n: usize,
}

impl SpearmanResult {
    /// Whether the correlation is significant at the given level
    /// (the paper uses 0.05).
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Assigns fractional ranks (average rank for ties), 1-based, matching
/// `scipy.stats.rankdata(method="average")`.
pub fn fractional_ranks(data: &[f64]) -> Vec<f64> {
    let n = data.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| data[a].partial_cmp(&data[b]).expect("finite data"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && data[idx[j + 1]] == data[idx[i]] {
            j += 1;
        }
        // Average of 1-based ranks i+1 ..= j+1.
        let avg = (i + j + 2) as f64 / 2.0;
        for k in i..=j {
            ranks[idx[k]] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Pearson product-moment correlation of two paired samples.
///
/// # Errors
///
/// Returns [`StatsError::LengthMismatch`] for unequal lengths,
/// [`StatsError::InsufficientData`] for fewer than 2 pairs, and
/// [`StatsError::NonFinite`] for invalid values. Two constant inputs have
/// undefined correlation and yield `0.0` (no monotonic relationship).
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch { left: x.len(), right: y.len() });
    }
    if x.len() < 2 {
        return Err(StatsError::InsufficientData { needed: 2, got: x.len() });
    }
    ensure_finite(x)?;
    ensure_finite(y)?;
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Ok(0.0);
    }
    Ok((sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0))
}

/// Spearman rank correlation with a t-approximation p-value.
///
/// # Errors
///
/// Same conditions as [`pearson`], except at least 3 pairs are required
/// for the p-value's degrees of freedom to be positive.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// // A perfectly monotonic (though nonlinear) relationship.
/// let jobs = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let util = [0.1, 0.5, 2.0, 30.0, 31.0];
/// let r = sc_stats::spearman(&jobs, &util)?;
/// assert!((r.rho - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn spearman(x: &[f64], y: &[f64]) -> Result<SpearmanResult, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch { left: x.len(), right: y.len() });
    }
    if x.len() < 3 {
        return Err(StatsError::InsufficientData { needed: 3, got: x.len() });
    }
    ensure_finite(x)?;
    ensure_finite(y)?;
    let rx = fractional_ranks(x);
    let ry = fractional_ranks(y);
    let rho = pearson(&rx, &ry)?;
    let n = x.len();
    let p_value = if rho.abs() >= 1.0 - 1e-12 {
        0.0
    } else {
        let df = (n - 2) as f64;
        let t = rho * (df / (1.0 - rho * rho)).sqrt();
        2.0 * student_t_sf(t.abs(), df)
    };
    Ok(SpearmanResult { rho, p_value, n })
}

/// Survival function (1 - CDF) of Student's t-distribution, computed via
/// the regularized incomplete beta function.
fn student_t_sf(t: f64, df: f64) -> f64 {
    // P(T > t) = 0.5 * I_{df/(df+t^2)}(df/2, 1/2) for t >= 0.
    let x = df / (df + t * t);
    0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
}

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction expansion (Numerical Recipes' `betai`/`betacf`).
fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b
    }
}

/// Lentz's continued fraction for the incomplete beta.
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ranks_handle_ties_by_averaging() {
        let r = fractional_ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn ranks_of_distinct_values() {
        let r = fractional_ranks(&[3.0, 1.0, 2.0]);
        assert_eq!(r, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn pearson_perfect_linear() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let yn: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &yn).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_input_yields_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0];
        let r = spearman(&x, &y).unwrap();
        assert!((r.rho - 1.0).abs() < 1e-12);
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn spearman_matches_scipy_reference() {
        // scipy.stats.spearmanr([1,2,3,4,5], [5,6,7,8,7]) ->
        // rho=0.8207826816681233, p=0.08858700531354381
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0, 6.0, 7.0, 8.0, 7.0];
        let r = spearman(&x, &y).unwrap();
        assert!((r.rho - 0.8207826816681233).abs() < 1e-9, "rho={}", r.rho);
        assert!((r.p_value - 0.08858700531354381).abs() < 1e-6, "p={}", r.p_value);
    }

    #[test]
    fn spearman_independent_is_near_zero() {
        // Alternating pattern with no monotonic trend.
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..40).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let r = spearman(&x, &y).unwrap();
        assert!(r.rho.abs() < 0.2, "rho={}", r.rho);
        assert!(!r.is_significant(0.05));
    }

    #[test]
    fn ln_gamma_reference_values() {
        // Gamma(5) = 24.
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        // Gamma(0.5) = sqrt(pi).
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn incomplete_beta_edges() {
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(1, 1) = x.
        assert!((regularized_incomplete_beta(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn errors_on_mismatched_or_short_input() {
        assert!(matches!(spearman(&[1.0, 2.0], &[1.0]), Err(StatsError::LengthMismatch { .. })));
        assert!(matches!(
            spearman(&[1.0, 2.0], &[1.0, 2.0]),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    proptest! {
        #[test]
        fn prop_spearman_in_range(
            pairs in proptest::collection::vec((-1e4..1e4f64, -1e4..1e4f64), 3..100)
        ) {
            let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let r = spearman(&x, &y).unwrap();
            prop_assert!((-1.0..=1.0).contains(&r.rho));
            prop_assert!((0.0..=1.0).contains(&r.p_value) || r.p_value <= 1.0 + 1e-9);
        }

        #[test]
        fn prop_spearman_symmetric(
            pairs in proptest::collection::vec((-1e4..1e4f64, -1e4..1e4f64), 3..60)
        ) {
            let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let a = spearman(&x, &y).unwrap();
            let b = spearman(&y, &x).unwrap();
            prop_assert!((a.rho - b.rho).abs() < 1e-9);
        }

        #[test]
        fn prop_spearman_invariant_under_monotone_transform(
            xs in proptest::collection::vec(0.1..1e3f64, 3..60)
        ) {
            // rho(x, y) == rho(x, exp(y)) for strictly increasing transform.
            let ys: Vec<f64> = xs.iter().map(|v| v * 2.0 + 1.0).collect();
            let ys_t: Vec<f64> = ys.iter().map(|v| v.ln()).collect();
            let a = spearman(&xs, &ys).unwrap();
            let b = spearman(&xs, &ys_t).unwrap();
            prop_assert!((a.rho - b.rho).abs() < 1e-9);
        }
    }
}

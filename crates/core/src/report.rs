//! Paper-vs-measured comparison plumbing shared by all figures.

/// One comparison row: a statistic the paper reports vs what this
/// reproduction measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Human-readable metric name, e.g. `"median GPU-job run time"`.
    pub metric: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Unit label, e.g. `"min"`, `"%"`, `"W"`.
    pub unit: &'static str,
}

impl Comparison {
    /// Builds a comparison row.
    pub fn new(metric: impl Into<String>, paper: f64, measured: f64, unit: &'static str) -> Self {
        Comparison { metric: metric.into(), paper, measured, unit }
    }

    /// `measured / paper`, or `NaN` when the paper value is zero
    /// (zero-valued claims are checked by absolute closeness instead).
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            f64::NAN
        } else {
            self.measured / self.paper
        }
    }

    /// Whether the measured value is within `rel` relative error of the
    /// paper value (absolute tolerance `abs` for zero-valued claims).
    pub fn within(&self, rel: f64, abs: f64) -> bool {
        if self.paper == 0.0 {
            self.measured.abs() <= abs
        } else {
            (self.measured - self.paper).abs() / self.paper.abs() <= rel
        }
    }

    /// One Markdown table row.
    pub fn markdown_row(&self) -> String {
        let ratio = self.ratio();
        let ratio_s = if ratio.is_nan() { "—".to_string() } else { format!("{ratio:.2}×") };
        format!(
            "| {} | {:.3} {} | {:.3} {} | {} |",
            self.metric, self.paper, self.unit, self.measured, self.unit, ratio_s
        )
    }
}

/// Renders a Markdown comparison table with a header.
pub fn markdown_table(title: &str, rows: &[Comparison]) -> String {
    let mut s =
        format!("### {title}\n\n| Metric | Paper | Measured | Ratio |\n|---|---|---|---|\n");
    for r in rows {
        s.push_str(&r.markdown_row());
        s.push('\n');
    }
    s
}

/// Formats an `(x, F(x))` CDF series compactly for text output.
pub fn format_cdf_points(points: &[(f64, f64)], max_points: usize) -> String {
    let step = (points.len() / max_points.max(1)).max(1);
    points
        .iter()
        .step_by(step)
        .map(|(x, f)| format!("({x:.3}, {f:.3})"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_within() {
        let c = Comparison::new("m", 10.0, 11.0, "min");
        assert!((c.ratio() - 1.1).abs() < 1e-12);
        assert!(c.within(0.15, 0.0));
        assert!(!c.within(0.05, 0.0));
    }

    #[test]
    fn zero_paper_value_uses_absolute_tolerance() {
        let c = Comparison::new("mem bottleneck", 0.0, 0.004, "%");
        assert!(c.ratio().is_nan());
        assert!(c.within(0.1, 0.01));
        assert!(!c.within(0.1, 0.001));
    }

    #[test]
    fn markdown_rendering() {
        let rows = vec![Comparison::new("a", 1.0, 2.0, "s"), Comparison::new("b", 0.0, 0.0, "%")];
        let md = markdown_table("Fig. X", &rows);
        assert!(md.contains("### Fig. X"));
        assert!(md.contains("| a | 1.000 s | 2.000 s | 2.00× |"));
        assert!(md.contains("| b |"));
    }

    #[test]
    fn cdf_formatting_subsamples() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64 / 100.0)).collect();
        let s = format_cdf_points(&pts, 10);
        assert!(s.matches('(').count() <= 11);
    }
}

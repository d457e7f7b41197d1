//! Minimal, dependency-free SVG rendering for the paper's figures.
//!
//! The text tables of [`crate::AnalysisReport`] are authoritative; each
//! figure draws the same series as standalone SVG files with these
//! charts ([`crate::figures::Figure::svgs`]), so the reproduction can
//! be *looked at* next to the paper. Only the chart types the paper
//! uses are implemented: line charts (ECDFs), bar charts (bottlenecks,
//! shares), and box plots.

use sc_stats::{BoxStats, Ecdf};
use std::fmt::Write as _;

/// A line-series color cycle (color-blind-safe, paper-ish).
const COLORS: [&str; 6] = ["#1b6ca8", "#d1495b", "#3e8e41", "#8d6a9f", "#e28413", "#4a4a4a"];

/// Chart margins and canvas size.
const W: f64 = 560.0;
const H: f64 = 360.0;
const ML: f64 = 62.0;
const MR: f64 = 18.0;
const MT: f64 = 34.0;
const MB: f64 = 50.0;

fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// One named line series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points in data coordinates.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series { name: name.into(), points }
    }
}

/// Axis scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Log-10 axis (positive data only; values are clamped to the
    /// smallest positive point).
    Log10,
}

fn nice_ticks(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if hi <= lo {
        return vec![lo];
    }
    let span = hi - lo;
    let raw = span / n.max(1) as f64;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let step = if norm < 1.5 {
        1.0
    } else if norm < 3.0 {
        2.0
    } else if norm < 7.0 {
        5.0
    } else {
        10.0
    } * mag;
    let start = (lo / step).ceil() * step;
    let mut t = start;
    let mut out = Vec::new();
    while t <= hi + 1e-9 * span {
        out.push(t);
        t += step;
    }
    out
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 10.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 1.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

/// Renders a line chart (the ECDF workhorse) to an SVG string.
///
/// # Panics
///
/// Panics if every series is empty.
pub fn line_chart(
    title: &str,
    x_label: &str,
    y_label: &str,
    x_scale: Scale,
    series: &[Series],
) -> String {
    let pts: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.iter().copied()).collect();
    assert!(!pts.is_empty(), "line chart needs data");
    let min_pos = pts.iter().map(|p| p.0).filter(|x| *x > 0.0).fold(f64::INFINITY, f64::min);
    let tx = |x: f64| -> f64 {
        match x_scale {
            Scale::Linear => x,
            Scale::Log10 => x.max(min_pos).log10(),
        }
    };
    let x_lo = pts.iter().map(|p| tx(p.0)).fold(f64::INFINITY, f64::min);
    let x_hi = pts.iter().map(|p| tx(p.0)).fold(f64::NEG_INFINITY, f64::max);
    let y_lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min).min(0.0);
    let y_hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max).max(1e-9);
    let x_span = (x_hi - x_lo).max(1e-9);
    let y_span = (y_hi - y_lo).max(1e-9);
    let px = |x: f64| ML + (tx(x) - x_lo) / x_span * (W - ML - MR);
    let py = |y: f64| H - MB - (y - y_lo) / y_span * (H - MT - MB);

    let mut s = svg_header(title);
    // Axes.
    let _ = writeln!(
        s,
        r##"<line x1="{ML}" y1="{0}" x2="{1}" y2="{0}" stroke="#333"/><line x1="{ML}" y1="{MT}" x2="{ML}" y2="{0}" stroke="#333"/>"##,
        H - MB,
        W - MR
    );
    // X ticks.
    match x_scale {
        Scale::Linear => {
            for t in nice_ticks(x_lo, x_hi, 6) {
                let x = ML + (t - x_lo) / x_span * (W - ML - MR);
                let _ = writeln!(
                    s,
                    r##"<line x1="{x:.1}" y1="{0}" x2="{x:.1}" y2="{1}" stroke="#333"/><text x="{x:.1}" y="{2}" font-size="11" text-anchor="middle">{3}</text>"##,
                    H - MB,
                    H - MB + 5.0,
                    H - MB + 18.0,
                    fmt_tick(t)
                );
            }
        }
        Scale::Log10 => {
            let d0 = x_lo.floor() as i32;
            let d1 = x_hi.ceil() as i32;
            for d in d0..=d1 {
                let xv = d as f64;
                if xv < x_lo - 1e-9 || xv > x_hi + 1e-9 {
                    continue;
                }
                let x = ML + (xv - x_lo) / x_span * (W - ML - MR);
                let _ = writeln!(
                    s,
                    r##"<line x1="{x:.1}" y1="{0}" x2="{x:.1}" y2="{1}" stroke="#333"/><text x="{x:.1}" y="{2}" font-size="11" text-anchor="middle">{3}</text>"##,
                    H - MB,
                    H - MB + 5.0,
                    H - MB + 18.0,
                    fmt_tick(10f64.powi(d))
                );
            }
        }
    }
    // Y ticks.
    for t in nice_ticks(y_lo, y_hi, 5) {
        let y = py(t);
        let _ = writeln!(
            s,
            r##"<line x1="{0}" y1="{y:.1}" x2="{ML}" y2="{y:.1}" stroke="#333"/><text x="{1}" y="{2:.1}" font-size="11" text-anchor="end">{3}</text>"##,
            ML - 5.0,
            ML - 8.0,
            y + 4.0,
            fmt_tick(t)
        );
    }
    // Series.
    for (i, ser) in series.iter().enumerate() {
        if ser.points.is_empty() {
            continue;
        }
        let color = COLORS[i % COLORS.len()];
        let path: String = ser
            .points
            .iter()
            .map(|(x, y)| format!("{:.1},{:.1}", px(*x), py(*y)))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            s,
            r##"<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.8"/>"##
        );
        // Legend.
        let ly = MT + 14.0 * i as f64;
        let _ = writeln!(
            s,
            r##"<line x1="{0}" y1="{ly:.1}" x2="{1}" y2="{ly:.1}" stroke="{color}" stroke-width="2.5"/><text x="{2}" y="{3:.1}" font-size="11">{4}</text>"##,
            W - MR - 120.0,
            W - MR - 100.0,
            W - MR - 94.0,
            ly + 4.0,
            esc(&ser.name)
        );
    }
    axis_labels(&mut s, x_label, y_label);
    s.push_str("</svg>\n");
    s
}

/// Renders ECDFs as a line chart, with the conventions every ECDF
/// panel shares: 64 points a curve (a log grid floored at 0.05 on a
/// log axis) and the fraction of jobs on the y axis.
pub fn ecdf_chart(title: &str, x_label: &str, x_scale: Scale, ecdfs: &[(&str, &Ecdf)]) -> String {
    let series: Vec<Series> = ecdfs
        .iter()
        .map(|&(name, e)| match x_scale {
            Scale::Linear => Series::new(name, e.curve(64)),
            Scale::Log10 => Series::new(name, e.log_curve(64, 0.05)),
        })
        .collect();
    line_chart(title, x_label, "fraction of jobs", x_scale, &series)
}

/// Renders a labeled bar chart.
///
/// # Panics
///
/// Panics if `bars` is empty.
pub fn bar_chart(title: &str, y_label: &str, bars: &[(String, f64)]) -> String {
    assert!(!bars.is_empty(), "bar chart needs data");
    let y_hi = bars.iter().map(|b| b.1).fold(0.0f64, f64::max).max(1e-9);
    let mut s = svg_header(title);
    let n = bars.len() as f64;
    let bw = (W - ML - MR) / n * 0.64;
    for (i, (label, v)) in bars.iter().enumerate() {
        let cx = ML + (i as f64 + 0.5) / n * (W - ML - MR);
        let h = v / y_hi * (H - MT - MB);
        let _ = writeln!(
            s,
            r##"<rect x="{0:.1}" y="{1:.1}" width="{bw:.1}" height="{h:.1}" fill="{2}"/><text x="{cx:.1}" y="{3}" font-size="10" text-anchor="middle">{4}</text><text x="{cx:.1}" y="{5:.1}" font-size="10" text-anchor="middle">{6}</text>"##,
            cx - bw / 2.0,
            H - MB - h,
            COLORS[i % COLORS.len()],
            H - MB + 14.0,
            esc(label),
            H - MB - h - 4.0,
            fmt_tick(*v)
        );
    }
    let _ = writeln!(
        s,
        r##"<line x1="{ML}" y1="{0}" x2="{1}" y2="{0}" stroke="#333"/>"##,
        H - MB,
        W - MR
    );
    axis_labels(&mut s, "", y_label);
    s.push_str("</svg>\n");
    s
}

/// Renders grouped box plots (whiskers, quartiles and median) from
/// `(label, box)` rows.
///
/// # Panics
///
/// Panics if `boxes` is empty.
pub fn box_chart(title: &str, y_label: &str, boxes: &[(String, &BoxStats)]) -> String {
    assert!(!boxes.is_empty(), "box chart needs data");
    let y_hi = boxes.iter().map(|b| b.1.whisker_high).fold(0.0f64, f64::max).max(1e-9);
    let py = |y: f64| H - MB - y.max(0.0) / y_hi * (H - MT - MB);
    let mut s = svg_header(title);
    let n = boxes.len() as f64;
    let bw = (W - ML - MR) / n * 0.4;
    for (i, (label, b)) in boxes.iter().enumerate() {
        let cx = ML + (i as f64 + 0.5) / n * (W - ML - MR);
        let color = COLORS[i % COLORS.len()];
        let _ = writeln!(
            s,
            r##"<line x1="{cx:.1}" y1="{0:.1}" x2="{cx:.1}" y2="{1:.1}" stroke="{color}"/><rect x="{2:.1}" y="{3:.1}" width="{bw:.1}" height="{4:.1}" fill="none" stroke="{color}" stroke-width="1.6"/><line x1="{2:.1}" y1="{5:.1}" x2="{6:.1}" y2="{5:.1}" stroke="{color}" stroke-width="2.2"/><text x="{cx:.1}" y="{7}" font-size="10" text-anchor="middle">{8}</text>"##,
            py(b.whisker_low),
            py(b.whisker_high),
            cx - bw / 2.0,
            py(b.q3),
            (py(b.q1) - py(b.q3)).max(0.5),
            py(b.median),
            cx + bw / 2.0,
            H - MB + 14.0,
            esc(label)
        );
    }
    for t in nice_ticks(0.0, y_hi, 5) {
        let y = py(t);
        let _ = writeln!(
            s,
            r##"<line x1="{0}" y1="{y:.1}" x2="{ML}" y2="{y:.1}" stroke="#333"/><text x="{1}" y="{2:.1}" font-size="11" text-anchor="end">{3}</text>"##,
            ML - 5.0,
            ML - 8.0,
            y + 4.0,
            fmt_tick(t)
        );
    }
    let _ = writeln!(
        s,
        r##"<line x1="{ML}" y1="{0}" x2="{1}" y2="{0}" stroke="#333"/>"##,
        H - MB,
        W - MR
    );
    axis_labels(&mut s, "", y_label);
    s.push_str("</svg>\n");
    s
}

fn svg_header(title: &str) -> String {
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\">\n\
         <rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>\n\
         <text x=\"{}\" y=\"20\" font-size=\"14\" text-anchor=\"middle\" font-weight=\"bold\">{}</text>\n",
        W / 2.0,
        esc(title)
    )
}

fn axis_labels(s: &mut String, x_label: &str, y_label: &str) {
    if !x_label.is_empty() {
        let _ = writeln!(
            s,
            r##"<text x="{0}" y="{1}" font-size="12" text-anchor="middle">{2}</text>"##,
            (W + ML - MR) / 2.0,
            H - 12.0,
            esc(x_label)
        );
    }
    if !y_label.is_empty() {
        let _ = writeln!(
            s,
            r##"<text x="16" y="{0}" font-size="12" text-anchor="middle" transform="rotate(-90 16 {0})">{1}</text>"##,
            (H + MT - MB) / 2.0,
            esc(y_label)
        );
    }
}

/// The reliability figure family as SVGs: the goodput frontier and the
/// checkpoint sweep as log-x line charts, the growth study as a bar
/// chart of median queue wait per scale. Series a degenerate run left
/// empty (a class with no exposure) are dropped; a chart with no data
/// at all is skipped rather than rendered blank.
pub fn reliability_svgs(report: &crate::ReliabilityReport) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();

    let frontier: Vec<Series> = report
        .frontier
        .rows
        .iter()
        .map(|r| {
            let pts: Vec<(f64, f64)> = report
                .frontier
                .class_gpus
                .iter()
                .zip(&r.goodput_by_class)
                .filter_map(|(&g, gp)| gp.map(|v| (g as f64, v)))
                .collect();
            Series::new(format!("mtbf x{}", r.mtbf_factor), pts)
        })
        .filter(|s| !s.points.is_empty())
        .collect();
    if !frontier.is_empty() {
        out.push((
            "goodput_frontier.svg",
            line_chart(
                "Goodput frontier",
                "job size (GPUs)",
                "goodput fraction",
                Scale::Log10,
                &frontier,
            ),
        ));
    }

    let mut sweep = vec![Series::new(
        "overall",
        report.sweep.rows.iter().map(|r| (r.interval_secs, r.overall_goodput)).collect(),
    )];
    for (c, verdict) in report.sweep.classes.iter().enumerate() {
        let pts: Vec<(f64, f64)> = report
            .sweep
            .rows
            .iter()
            .filter_map(|r| r.goodput_by_class[c].map(|v| (r.interval_secs, v)))
            .collect();
        if !pts.is_empty() {
            sweep.push(Series::new(verdict.label.clone(), pts));
        }
    }
    out.push((
        "checkpoint_sweep.svg",
        line_chart(
            "Checkpoint-interval sweep (Young/Daly)",
            "checkpoint interval (s)",
            "goodput fraction",
            Scale::Log10,
            &sweep,
        ),
    ));

    if let Some(growth) = &report.growth {
        let bars: Vec<(String, f64)> =
            growth.rows.iter().map(|r| (format!("x{}", r.factor), r.median_wait_secs)).collect();
        out.push((
            "reliability_growth.svg",
            bar_chart("Cluster growth: median queue wait", "seconds", &bars),
        ));
    }
    out
}

/// Writes every figure of an [`crate::AnalysisReport`] as SVG files into
/// `dir` (created if missing): each figure's
/// [`svgs`](crate::figures::Figure::svgs), in report order. Returns the
/// written paths.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_report_svgs(
    report: &crate::AnalysisReport,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (_, fig) in &report.figures {
        for (name, svg) in fig.svgs() {
            let path = dir.join(name);
            std::fs::write(&path, svg)?;
            written.push(path);
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_well_formed(svg: &str) {
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<svg").count(), 1);
        for tag in ["polyline", "rect", "line", "text"] {
            let open = svg.matches(&format!("<{tag}")).count();
            let closed = svg.matches(&format!("<{tag} ")).count();
            assert_eq!(open, closed, "tag {tag} malformed");
        }
    }

    #[test]
    fn line_chart_renders_all_series() {
        let svg = line_chart(
            "t",
            "x",
            "y",
            Scale::Linear,
            &[
                Series::new("a", vec![(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)]),
                Series::new("b", vec![(0.0, 0.2), (2.0, 0.9)]),
            ],
        );
        is_well_formed(&svg);
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains(">a</text>") && svg.contains(">b</text>"));
    }

    #[test]
    fn log_scale_handles_wide_ranges() {
        let pts: Vec<(f64, f64)> =
            (0..50).map(|i| (10f64.powf(i as f64 / 10.0), i as f64 / 50.0)).collect();
        let svg = line_chart("t", "x", "y", Scale::Log10, &[Series::new("s", pts)]);
        is_well_formed(&svg);
        assert!(svg.contains("100")); // decade tick
    }

    #[test]
    fn bar_chart_draws_one_rect_per_bar() {
        let bars = vec![("SM".to_string(), 0.22), ("Mem".to_string(), 0.001)];
        let svg = bar_chart("t", "y", &bars);
        is_well_formed(&svg);
        assert_eq!(svg.matches("<rect").count(), 1 + 2); // background + bars
    }

    #[test]
    fn box_chart_orders_glyphs() {
        let b = BoxStats::from_sample(&[1.0, 10.0, 21.0, 45.0, 90.0]).unwrap();
        let svg = box_chart("t", "y", &[("mature".to_string(), &b)]);
        is_well_formed(&svg);
        assert!(svg.contains("mature"));
    }

    #[test]
    fn titles_are_escaped() {
        let svg = bar_chart("a<b&c", "y", &[("x".into(), 1.0)]);
        assert!(svg.contains("a&lt;b&amp;c"));
    }

    #[test]
    fn write_report_svgs_produces_files() {
        let report = crate::AnalysisReport::try_from_sim(crate::testsupport::small_sim()).unwrap();
        let dir = std::env::temp_dir().join("sc_svg_test");
        let files = write_report_svgs(&report, &dir).expect("svg files written");
        assert!(files.len() >= 11);
        for f in &files {
            let content = std::fs::read_to_string(f).expect("readable");
            assert!(content.starts_with("<svg"), "{f:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

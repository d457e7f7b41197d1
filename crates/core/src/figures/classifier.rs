//! Workload-classification report — the `sc-learn` extension.
//!
//! Not a figure of the HPCA 2022 paper: the paper observes (Sec. VII)
//! that rich per-job telemetry enables workload *characterization*; the
//! follow-up challenge it poses is recognizing what a job *is* from
//! what it *does*. This figure reports a classifier evaluated against
//! the synthesizer's hidden ground-truth archetypes: a confusion
//! matrix over the held-out split, overall accuracy for the decision
//! forest and the nearest-centroid baseline, and per-class
//! precision/recall.
//!
//! The struct is plain data so `sc-learn` (which depends on this
//! crate) can fill it in; rendering stays next to the other figures.

use std::fmt::Write as _;

/// Confusion-matrix report for one trained classifier, over the
/// held-out evaluation split.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierFig {
    /// Class labels, in class-index order (rows and columns).
    pub labels: Vec<String>,
    /// `confusion[truth][predicted]` job counts over the test split.
    pub confusion: Vec<Vec<u64>>,
    /// Decision-forest accuracy on the test split.
    pub accuracy: f64,
    /// Nearest-centroid baseline accuracy on the same split.
    pub centroid_accuracy: f64,
    /// Per-class precision (diagonal over predicted-column sum).
    pub precision: Vec<f64>,
    /// Per-class recall (diagonal over truth-row sum).
    pub recall: Vec<f64>,
    /// Jobs in the training split.
    pub train_count: usize,
    /// Jobs in the evaluation split.
    pub test_count: usize,
}

impl ClassifierFig {
    /// Renders the confusion matrix and summary scores as text.
    pub fn render(&self) -> String {
        let mut s = format!(
            "Workload classification — forest accuracy {:.3} \
             (centroid baseline {:.3}), {} train / {} test jobs:\n",
            self.accuracy, self.centroid_accuracy, self.train_count, self.test_count
        );
        let _ = write!(s, "  {:<22}", "truth \\ predicted");
        for l in &self.labels {
            let _ = write!(s, " {l:>19}");
        }
        s.push('\n');
        for (i, row) in self.confusion.iter().enumerate() {
            let _ = write!(s, "  {:<22}", self.labels[i]);
            for v in row {
                let _ = write!(s, " {v:>19}");
            }
            s.push('\n');
        }
        s.push_str("  class                    precision   recall\n");
        for (i, l) in self.labels.iter().enumerate() {
            let _ = writeln!(s, "  {l:<22} {:>11.3} {:>8.3}", self.precision[i], self.recall[i]);
        }
        s
    }

    /// The confusion matrix as an SVG heatmap (row-normalized shading,
    /// absolute counts printed per cell).
    pub fn to_svg(&self) -> String {
        let n = self.labels.len().max(1);
        let cell = 86.0;
        let ml = 150.0;
        let mt = 76.0;
        let w = ml + cell * n as f64 + 20.0;
        let h = mt + cell * n as f64 + 30.0;
        let mut s = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
             viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\">\n\
             <rect width=\"{w}\" height=\"{h}\" fill=\"white\"/>\n\
             <text x=\"{:.1}\" y=\"22\" font-size=\"14\" text-anchor=\"middle\" \
             font-weight=\"bold\">Workload classification — confusion matrix \
             (accuracy {:.3})</text>\n",
            w / 2.0,
            self.accuracy
        );
        for (j, l) in self.labels.iter().enumerate() {
            let x = ml + (j as f64 + 0.5) * cell;
            let _ = writeln!(
                s,
                r##"<text x="{x:.1}" y="{:.1}" font-size="11" text-anchor="middle">{l}</text>"##,
                mt - 10.0
            );
        }
        for (i, row) in self.confusion.iter().enumerate() {
            let y = mt + i as f64 * cell;
            let row_total: u64 = row.iter().sum();
            let _ = writeln!(
                s,
                r##"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="end">{}</text>"##,
                ml - 8.0,
                y + cell / 2.0 + 4.0,
                self.labels[i]
            );
            for (j, v) in row.iter().enumerate() {
                let x = ml + j as f64 * cell;
                let frac = if row_total == 0 { 0.0 } else { *v as f64 / row_total as f64 };
                // White (0) to the line-chart blue (1), linear ramp.
                let (r, g, b) = (
                    255.0 - frac * (255.0 - 27.0),
                    255.0 - frac * (255.0 - 108.0),
                    255.0 - frac * (255.0 - 168.0),
                );
                let fill = format!("rgb({r:.0},{g:.0},{b:.0})");
                let text_fill = if frac > 0.55 { "white" } else { "#333" };
                let _ = writeln!(
                    s,
                    r##"<rect x="{x:.1}" y="{y:.1}" width="{cell}" height="{cell}" fill="{fill}" stroke="#999"/><text x="{:.1}" y="{:.1}" font-size="12" text-anchor="middle" fill="{text_fill}">{v}</text>"##,
                    x + cell / 2.0,
                    y + cell / 2.0 + 4.0
                );
            }
        }
        let _ = writeln!(
            s,
            r##"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="middle">predicted →   (rows: ground truth; {} test jobs)</text>"##,
            ml + cell * n as f64 / 2.0,
            mt + cell * n as f64 + 18.0,
            self.test_count,
        );
        s.push_str("</svg>\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fig() -> ClassifierFig {
        ClassifierFig {
            labels: vec!["a".into(), "b".into()],
            confusion: vec![vec![8, 2], vec![1, 9]],
            accuracy: 0.85,
            centroid_accuracy: 0.75,
            precision: vec![8.0 / 9.0, 9.0 / 11.0],
            recall: vec![0.8, 0.9],
            train_count: 40,
            test_count: 20,
        }
    }

    #[test]
    fn render_shows_matrix_and_scores() {
        let text = sample_fig().render();
        assert!(text.contains("accuracy 0.850"));
        assert!(text.contains("centroid baseline 0.750"));
        assert!(text.contains("precision"));
        assert!(text.contains("40 train / 20 test"));
    }

    #[test]
    fn svg_has_one_cell_per_matrix_entry() {
        let svg = sample_fig().to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Background rect + 4 cells.
        assert_eq!(svg.matches("<rect").count(), 5);
        assert!(svg.contains("accuracy 0.850"));
    }

    #[test]
    fn empty_rows_shade_as_zero() {
        let mut fig = sample_fig();
        fig.confusion = vec![vec![0, 0], vec![0, 0]];
        let svg = fig.to_svg();
        assert!(svg.contains("rgb(255,255,255)"), "zero rows stay white");
    }
}

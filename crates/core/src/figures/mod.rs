//! One module per figure of the paper's evaluation.
//!
//! Every report figure is a struct with a `try_compute` constructor
//! (a pure function of its inputs, returning a typed error on a
//! degenerate input) and an implementation of [`Figure`]: `render`
//! prints the rows and series the paper plots, `comparisons` gives the
//! paper-vs-measured rows for `EXPERIMENTS.md`, and `svgs` draws the
//! figure's panels. [`crate::FigureId`] lists the figures and says what
//! each one reads. The remaining modules hold the extension studies
//! (classifier, data quality, policy A/B, reliability), each rendered
//! by its own caller.

pub mod classifier;
pub mod data_quality;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod goodput;
pub mod policy_ab;
pub mod reliability;
pub mod streaming;
pub mod timeline;

use crate::report::Comparison;

/// One computed figure of the report.
pub trait Figure: std::fmt::Debug + Send + Sync {
    /// Renders the figure's series as text.
    fn render(&self) -> String;

    /// Paper-vs-measured rows; none for a figure the paper does not
    /// report.
    fn comparisons(&self) -> Vec<Comparison> {
        Vec::new()
    }

    /// The figure's panels as `(file name, SVG document)` pairs; none
    /// for a figure drawn only as text.
    fn svgs(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
}

pub use classifier::ClassifierFig;
pub use data_quality::{DataQualityFig, DeltaRow};
pub use fig03::Fig3;
pub use fig04::Fig4;
pub use fig05::Fig5;
pub use fig06::Fig6;
pub use fig07::Fig7;
pub use fig08::Fig8;
pub use fig09::Fig9;
pub use fig10::Fig10;
pub use fig11::Fig11;
pub use fig12::Fig12;
pub use fig13::Fig13;
pub use fig14::Fig14;
pub use fig15::Fig15;
pub use fig16::Fig16;
pub use fig17::Fig17;
pub use goodput::GoodputFig;
pub use policy_ab::{PolicyAbFig, PolicyArm};
pub use reliability::{CheckpointSweepFig, GoodputFrontierFig, GrowthStudyFig, ReliabilitySizeFig};
pub use streaming::{StreamCheck, StreamingTelemetryFig};
pub use timeline::ClusterTimelineFig;

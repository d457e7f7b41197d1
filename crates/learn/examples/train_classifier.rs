//! Trains the archetype classifier on a scaled-down supercloud trace
//! and prints the held-out evaluation report.
//!
//! ```text
//! cargo run -p sc-learn --release --example train_classifier
//! ```

use sc_learn::{ArchetypePredictor, ClassifierConfig};
use sc_workload::{Trace, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec::supercloud().scaled(0.02);
    let trace = Trace::generate(&spec, 7);
    let cfg = ClassifierConfig::default();
    match ArchetypePredictor::train(&trace, &cfg) {
        Ok((_, report)) => println!("{}", report.to_fig().render()),
        Err(e) => {
            eprintln!("train_classifier: {e}");
            std::process::exit(1);
        }
    }
}

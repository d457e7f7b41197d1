//! Runs the figure pipeline over a previously exported dataset
//! (`export_dataset` output) — the consumer side of the paper's
//! published-dataset workflow. It regenerates every figure whose inputs
//! a release carries ([`Reads::Records`]); Figs. 6–7 need the 100 ms
//! time-series subset, and the goodput, timeline and streaming figures
//! the simulation itself, so those are left out.
//!
//! ```text
//! analyze_dataset dataset.json
//! ```

use sc_core::{gpu_views, user_stats, FigureId, Inputs, Reads};
use sc_telemetry::Dataset;

const USAGE: &str = "usage: analyze_dataset <dataset.json>

Runs the figure pipeline over a dataset written by export_dataset.";

/// Prints an error plus the usage text and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("analyze_dataset: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Prints a runtime (non-usage) error and exits with status 1.
fn fail(msg: &str) -> ! {
    eprintln!("analyze_dataset: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = match args.next().as_deref() {
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Some(p) => p.to_string(),
        None => usage_error("missing dataset path"),
    };
    if let Some(extra) = args.next() {
        usage_error(&format!("unexpected argument {extra}"));
    }
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let dataset =
        Dataset::from_json(&json).unwrap_or_else(|e| fail(&format!("invalid dataset JSON: {e}")));
    eprintln!(
        "loaded {}: {} records, {} analyzed GPU jobs, {} users",
        path,
        dataset.records().len(),
        dataset.funnel().gpu_jobs,
        dataset.funnel().unique_users
    );
    let views = gpu_views(&dataset);
    let users = user_stats(&views);
    let input = Inputs { dataset: &dataset, views: &views, users: &users, sim: None };
    let mut text = String::new();
    for id in FigureId::ALL.into_iter().filter(|id| id.reads() == Reads::Records) {
        // A well-formed dataset can still lack a population some figure
        // needs (Fig. 3 needs CPU jobs): report the stage, don't panic.
        let fig = id.compute(&input).unwrap_or_else(|e| fail(&e.to_string()));
        text.push_str(&fig.render());
        text.push('\n');
    }
    println!("{text}");
}

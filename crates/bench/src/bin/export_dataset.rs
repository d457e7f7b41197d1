//! Exports the joined analysis dataset as JSON — the synthetic
//! counterpart of the dataset the paper released at dcc.mit.edu. The
//! world is the `supercloud` scenario preset at the given scale and
//! seed, the same one a bare `repro_figures` run simulates.
//!
//! ```text
//! export_dataset [--scale F] [--seed N] [--out dataset.json] [--csv FILE]
//! ```

use sc_cluster::Simulation;
use sc_scenario::Scenario;
use sc_workload::{Trace, WorkloadSpec};

const USAGE: &str = "usage: export_dataset [--scale F] [--seed N] [--out dataset.json] [--csv FILE]

  --scale F   scale the workload by F, above 0 and at most 100 (default 0.05)
  --seed N    master RNG seed (default 42)
  --out FILE  JSON output path (default dataset.json)
  --csv FILE  also write the flat CSV form";

/// Prints an error plus the usage text and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("export_dataset: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Prints a runtime (non-usage) error and exits with status 1.
fn fail(msg: &str) -> ! {
    eprintln!("export_dataset: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut scale = 0.05f64;
    let mut seed = 42u64;
    let mut out = "dataset.json".to_string();
    let mut csv: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| usage_error(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--scale" => {
                let factor = value("--scale")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--scale needs a number"));
                scale = WorkloadSpec::check_scale(factor)
                    .unwrap_or_else(|e| usage_error(&format!("--scale {e}")));
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs an integer"));
            }
            "--out" => out = value("--out"),
            "--csv" => csv = Some(value("--csv")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    let sc = Scenario::default();
    let trace = Trace::generate(&sc.scaled_spec(scale), seed);
    let result = Simulation::new(sc.sim_config(scale, seed)).run(&trace);
    if let Some(path) = &csv {
        std::fs::write(path, result.dataset.to_csv())
            .unwrap_or_else(|e| fail(&format!("cannot write CSV {path}: {e}")));
        eprintln!("wrote {path}");
    }
    let json = result.dataset.to_json();
    std::fs::write(&out, &json)
        .unwrap_or_else(|e| fail(&format!("cannot write dataset {out}: {e}")));
    eprintln!(
        "wrote {} ({} records, {:.1} MiB)",
        out,
        result.dataset.records().len(),
        json.len() as f64 / (1024.0 * 1024.0)
    );
}

//! The command-line tools' output, pinned byte for byte.
//!
//! Each row of `tests/golden/cli_digests.txt` names one artifact of one
//! command line, its stdout or a file it writes, with the artifact's
//! FNV-1a digest and byte length. Stderr is left out: it carries
//! wall-clock timings. The tools round every figure statistic they
//! print, so one more row pins the report's statistics at full
//! precision. The reliability study's JSON is pinned with its
//! wall-clock members masked. Each policy arm's A/B runs under a
//! stressed fleet, and the classifier's JSON report is pinned on its
//! own and beside the predicted arm. A change to any figure statistic,
//! its rendering or its SVG moves a row, and the failure names every
//! row that moved. An intended change is regenerated with
//! `scripts/update_golden.sh` (or `SC_REGEN_GOLDEN=1`) and reviewed as
//! a diff of named rows.

use sc_cluster::Simulation;
use sc_core::AnalysisReport;
use sc_scenario::Scenario;
use sc_serve::fnv1a64;
use sc_workload::Trace;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/cli_digests.txt");

const HEADER: &str = "# FNV-1a digest and byte length of each artifact the command-line tools\n\
# write, one row per command line and artifact (stdout or a file name),\n\
# and of the report's statistics at full precision. Checked by\n\
# crates/bench/tests/cli_digests.rs; regenerate with\n\
# scripts/update_golden.sh. D is a scratch directory.\n";

/// Runs `bin` with `args`, failing on a non-zero exit, and returns its
/// stdout.
fn stdout_of(bin: &str, args: &[&str]) -> Vec<u8> {
    let run = Command::new(bin).args(args).output().expect("binary runs");
    assert!(
        run.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    run.stdout
}

/// A fresh scratch directory for one command's files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sc_cli_digests_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

struct Rows(Vec<String>);

impl Rows {
    fn push(&mut self, command: &str, artifact: &str, bytes: &[u8]) {
        self.0.push(format!("{:016x} {:>8} {command} :: {artifact}", fnv1a64(bytes), bytes.len()));
    }

    /// One row per file in `dir`, in name order.
    fn push_files(&mut self, command: &str, dir: &Path) {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .expect("readable directory")
            .map(|e| e.expect("directory entry").file_name().into_string().expect("UTF-8 name"))
            .collect();
        names.sort();
        for name in names {
            self.push(command, &name, &std::fs::read(dir.join(&name)).expect("readable file"));
        }
    }
}

fn repro_rows(rows: &mut Rows, world: &[&str]) {
    for threads in ["1", "2"] {
        let dir = scratch(&format!("svg_t{threads}_{}", world.len()));
        let mut args = vec!["--scale", "0.02", "--seed", "42", "--threads", threads];
        args.extend_from_slice(world);
        let command = format!("repro_figures {} --svg-dir D", args.join(" "));
        args.extend(["--svg-dir", dir.to_str().expect("UTF-8 path")]);
        rows.push(&command, "stdout", &stdout_of(env!("CARGO_BIN_EXE_repro_figures"), &args));
        rows.push_files(&command, &dir);
        std::fs::remove_dir_all(&dir).expect("scratch removed");
    }
}

/// `repro_figures --scale 0.02 --seed 42` with `world`, at 1 and 2
/// threads: its stdout and, with `classifier_json`, the report that
/// `--classifier-json D/c.json` writes.
fn run_rows(rows: &mut Rows, world: &[&str], classifier_json: bool) {
    for threads in ["1", "2"] {
        let dir = scratch(&format!("run_t{threads}_{}", world.join("_")));
        let json = dir.join("c.json");
        let mut args = vec!["--scale", "0.02", "--seed", "42", "--threads", threads];
        args.extend_from_slice(world);
        let mut command = format!("repro_figures {}", args.join(" "));
        if classifier_json {
            command.push_str(" --classifier-json D/c.json");
            args.extend(["--classifier-json", json.to_str().expect("UTF-8 path")]);
        }
        rows.push(&command, "stdout", &stdout_of(env!("CARGO_BIN_EXE_repro_figures"), &args));
        rows.push_files(&command, &dir);
        std::fs::remove_dir_all(&dir).expect("scratch removed");
    }
}

fn dataset_rows(rows: &mut Rows) {
    let dir = scratch("dataset");
    let (json, csv) = (dir.join("d.json"), dir.join("d.csv"));
    let (json, csv) = (json.to_str().expect("UTF-8 path"), csv.to_str().expect("UTF-8 path"));
    let export = "export_dataset --scale 0.02 --seed 42 --out D/d.json --csv D/d.csv";
    let args = ["--scale", "0.02", "--seed", "42", "--out", json, "--csv", csv];
    stdout_of(env!("CARGO_BIN_EXE_export_dataset"), &args);
    rows.push_files(export, &dir);
    let analyzed = stdout_of(env!("CARGO_BIN_EXE_analyze_dataset"), &[json]);
    rows.push("analyze_dataset D/d.json", "stdout", &analyzed);
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// The `--reliability-json` members that carry wall-clock readings.
const WALL_CLOCK_MEMBERS: [&str; 4] =
    ["study_secs", "growth_min_jobs_per_sec", "event_loop_secs", "jobs_per_sec"];

/// `json` with the value of every member named in `keys` replaced by
/// `_`, wherever the member appears.
fn mask_members(json: &str, keys: &[&str]) -> String {
    let mut out = json.to_string();
    for key in keys {
        let name = format!("\"{key}\": ");
        let mut from = 0;
        while let Some(at) = out[from..].find(&name) {
            let start = from + at + name.len();
            let end = out[start..].find([',', ' ', '\n', '}']).map_or(out.len(), |e| start + e);
            out.replace_range(start..end, "_");
            from = start + 1;
        }
    }
    out
}

/// The reliability study with fleet growth under a stressed fleet: its
/// stdout and its `--reliability-json`, less the wall-clock members.
fn reliability_rows(rows: &mut Rows) {
    for threads in ["1", "2"] {
        let dir = scratch(&format!("reliability_t{threads}"));
        let json = dir.join("r.json");
        let mut args = vec!["--scale", "0.02", "--seed", "42", "--threads", threads];
        args.extend(["--reliability", "--growth", "2,32", "--mtbf", "0.2"]);
        let command = format!("repro_figures {} --reliability-json D/r.json", args.join(" "));
        args.extend(["--reliability-json", json.to_str().expect("UTF-8 path")]);
        rows.push(&command, "stdout", &stdout_of(env!("CARGO_BIN_EXE_repro_figures"), &args));
        let text = std::fs::read_to_string(&json).expect("reliability JSON written");
        let masked = mask_members(&text, &WALL_CLOCK_MEMBERS);
        rows.push(&command, "r.json less wall-clock members", masked.as_bytes());
        std::fs::remove_dir_all(&dir).expect("scratch removed");
    }
}

/// The measured side of every paper-vs-measured row, printed with
/// `{:?}` (the shortest text that reads back to the same `f64`), for
/// the world `export_dataset --scale 0.02 --seed 42` simulates.
fn statistic_rows(rows: &mut Rows) {
    let sc = Scenario::default();
    let trace = Trace::generate(&sc.scaled_spec(0.02), 42);
    let out = Simulation::new(sc.sim_config(0.02, 42)).run(&trace);
    let report = AnalysisReport::try_from_sim(&out).expect("every report figure computes");
    let mut text = String::new();
    for (title, comparisons) in report.all_comparisons() {
        for c in comparisons {
            writeln!(text, "{title} | {} | {:?}", c.metric, c.measured).expect("String write");
        }
    }
    rows.push("AnalysisReport --scale 0.02 --seed 42", "measured statistics", text.as_bytes());
}

#[test]
fn cli_output_matches_committed_digests() {
    let mut rows = Rows(Vec::new());
    repro_rows(&mut rows, &[]);
    repro_rows(&mut rows, &["--data-quality", "lossy", "--failure-profile", "stress"]);
    reliability_rows(&mut rows);
    for arm in ["powercap:150", "coshare", "coshare-predicted", "tiered"] {
        let world = ["--failure-profile", "stress", "--policy", arm];
        run_rows(&mut rows, &world, arm == "coshare-predicted");
    }
    run_rows(&mut rows, &["--classify"], true);
    dataset_rows(&mut rows);
    statistic_rows(&mut rows);
    let rendered = format!("{HEADER}{}\n", rows.0.join("\n"));
    if std::env::var("SC_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, rendered).expect("write golden digests");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden digests committed");
    let golden: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let moved: Vec<String> = rows
        .0
        .iter()
        .filter(|row| !golden.contains(&row.as_str()))
        .map(|row| format!("  now {row}"))
        .chain(
            golden
                .iter()
                .filter(|row| !rows.0.iter().any(|r| r == *row))
                .map(|row| format!("  was {row}")),
        )
        .collect();
    assert!(
        moved.is_empty(),
        "CLI output diverges from tests/golden/cli_digests.txt; regenerate with \
         scripts/update_golden.sh if intentional:\n{}",
        moved.join("\n")
    );
}

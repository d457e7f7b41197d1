//! The command-line tools as a user runs them.
//!
//! `repro_figures` world flags edit one field of the scenario they run
//! on, wherever they sit on the command line. Those checks read the
//! `failure injection on:` line the binary prints to stderr, which
//! names the class count of the failure model that actually ran and
//! the Young checkpoint interval derived from its MTBFs. The artifact
//! checks parse every JSON file the tools write and read the keys the
//! bench gates consume, and look for every section of the `--out`
//! report.

use sc_obs::json::{Error, Reader, Token};
use std::path::Path;
use std::process::Command;

/// The stderr failure-injection line of a 1%-scale, one-thread run.
fn injection_line(flags: &[&str]) -> String {
    let run = Command::new(env!("CARGO_BIN_EXE_repro_figures"))
        .args(["--threads", "1", "--scale", "0.01"])
        .args(flags)
        .output()
        .expect("repro_figures runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{flags:?} failed:\n{stderr}");
    stderr
        .lines()
        .find_map(|l| l.strip_prefix("failure injection on: "))
        .unwrap_or_else(|| panic!("{flags:?} injected no failures:\n{stderr}"))
        .to_string()
}

#[test]
fn mtbf_rescales_the_scenario_taxonomy() {
    // in2p3 declares the 1-class `transient` profile at 0.8x MTBF; the
    // flag replaces only the factor.
    assert_eq!(
        injection_line(&["--scenario", "in2p3", "--mtbf", "0.5"]),
        "1 classes, checkpoint interval 5477s"
    );
}

#[test]
fn flag_position_relative_to_scenario_does_not_matter() {
    assert_eq!(
        injection_line(&["--mtbf", "0.5", "--scenario", "in2p3"]),
        "1 classes, checkpoint interval 5477s"
    );
}

#[test]
fn power_cap_below_idle_draw_is_a_usage_error() {
    let run = Command::new(env!("CARGO_BIN_EXE_repro_figures"))
        .args(["--threads", "1", "--scale", "0.01", "--policy", "powercap:1"])
        .output()
        .expect("repro_figures runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(
            "--policy powercap needs finite watts at or above the V100 idle draw of 20 W, got 1"
        ),
        "{stderr}"
    );
}

/// A thread budget outside `1..=MAX_THREAD_BUDGET`, or not a whole
/// number, is a usage error in both tools. It is caught while the
/// command line is read: stderr holds only the message and the usage
/// text, without the first line a run prints, so no worker started.
#[test]
fn thread_budget_outside_its_range_is_a_usage_error() {
    let over = (sc_par::MAX_THREAD_BUDGET + 1).to_string();
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_repro_figures"), "repro_figures"),
        (env!("CARGO_BIN_EXE_serve_load"), "serve_load"),
    ] {
        for bad in ["0", over.as_str(), "four"] {
            let run = Command::new(bin)
                .args(["--scale", "0.01", "--threads", bad])
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(2), "{name} --threads {bad}: {stderr}");
            let message = format!(
                "{name}: --threads takes a whole number from 1 to {}, got \"{bad}\"\nusage: {name} ",
                sc_par::MAX_THREAD_BUDGET
            );
            assert!(stderr.starts_with(&message), "{name} --threads {bad}: {stderr}");
            assert!(!stderr.contains("generating") && !stderr.contains("building"), "{stderr}");
            assert!(run.stdout.is_empty(), "{name} --threads {bad} printed to stdout");
        }
    }
}

/// A scale factor that is not positive, not finite or above
/// `WorkloadSpec::MAX_SCALE` is a usage error in every tool that takes
/// `--scale`, caught before a trace is generated. The ceiling itself is
/// tested through `WorkloadSpec::check_scale` alone: a run there would
/// build 7.5 million jobs.
#[test]
fn scale_outside_its_range_is_a_usage_error() {
    let max = sc_workload::WorkloadSpec::MAX_SCALE;
    let above = format!("{:?}", f64::from_bits(max.to_bits() + 1));
    let out = scratch("scale_rejected.json");
    // export_dataset has no thread budget.
    for (bin, name, threads) in [
        (env!("CARGO_BIN_EXE_repro_figures"), "repro_figures", &["--threads", "1"][..]),
        (env!("CARGO_BIN_EXE_export_dataset"), "export_dataset", &[]),
        (env!("CARGO_BIN_EXE_serve_load"), "serve_load", &["--threads", "1"]),
    ] {
        for bad in [above.as_str(), "0", "-1", "NaN", "inf", "1e308"] {
            let run = Command::new(bin)
                .args(threads)
                .args(["--scale", bad, "--out", &out])
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(2), "{name} --scale {bad}: {stderr}");
            let message = format!("{name}: --scale must be a positive factor of at most 100, got ");
            assert!(stderr.starts_with(&message), "{name} --scale {bad}: {stderr}");
            assert!(stderr.contains(&format!("\nusage: {name} ")), "{stderr}");
            assert!(run.stdout.is_empty(), "{name} --scale {bad} printed to stdout");
            assert!(!Path::new(&out).exists(), "{name} --scale {bad} wrote {out}");
        }
    }
}

/// A scenario whose train split gets no labeled GPU job cannot train
/// the classifier: the run exits 1 with the reason instead of
/// panicking.
#[test]
fn empty_classifier_split_is_a_run_error() {
    let scenario = scratch("empty_train_split.toml");
    let toml = "[scenario]\nname = \"thin\"\n[classifier]\nenabled = true\n\
                train_fraction = 0.000001\n";
    std::fs::write(&scenario, toml).expect("scenario written");
    let run = Command::new(env!("CARGO_BIN_EXE_repro_figures"))
        .args(["--threads", "1", "--scale", "0.01", "--scenario", &scenario])
        .output()
        .expect("repro_figures runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("repro_figures: workload classifier: input sample was empty"),
        "{stderr}"
    );
}

#[test]
fn mtbf_alone_rescales_the_supercloud_taxonomy() {
    assert_eq!(injection_line(&["--mtbf", "0.5"]), "3 classes, checkpoint interval 8752s");
}

#[test]
fn failure_profile_keeps_the_scenario_mtbf_factor() {
    // stress x 0.8 (in2p3's factor): the Young interval is
    // sqrt(2 * write * MTTI), so bare stress's 3914 s shrinks by
    // sqrt(0.8).
    assert_eq!(
        injection_line(&["--failure-profile", "stress"]),
        "3 classes, checkpoint interval 3914s"
    );
    assert_eq!(
        injection_line(&["--scenario", "in2p3", "--failure-profile", "stress"]),
        "3 classes, checkpoint interval 3501s"
    );
}

/// A parsed JSON value: the artifacts are read back through the
/// workspace's JSON reader, not by string matching.
enum Value {
    /// An object's members, in document order.
    Map(Vec<(String, Value)>),
    Seq(Vec<Value>),
    Str(String),
    /// A number.
    Num,
    /// `true`, `false` or `null`.
    Literal,
}

/// Parses the JSON file at `path`.
fn parse(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("artifact written");
    document(&text).unwrap_or_else(|e| panic!("{} is not JSON ({e}):\n{text}", path.display()))
}

/// The value of the JSON document `text`.
fn document(text: &str) -> Result<Value, Error> {
    let mut r = Reader::new(text);
    let first = r.next()?.expect("a document holds a value");
    let value = build(&mut r, first)?;
    // The reader refuses anything but whitespace after the value.
    assert_eq!(r.next()?, None);
    Ok(value)
}

/// The value that the token `first` begins, read on from `r`.
fn build<'a>(r: &mut Reader<'a>, first: Token<'a>) -> Result<Value, Error> {
    Ok(match first {
        Token::ObjectStart => {
            let mut members = Vec::new();
            // Inside an object the reader yields keys, then the end.
            while let Some(Token::Key(key)) = r.next()? {
                let value = r.next()?.expect("a member has a value");
                members.push((key.into_owned(), build(r, value)?));
            }
            Value::Map(members)
        }
        Token::ArrayStart => {
            let mut items = Vec::new();
            loop {
                match r.next()?.expect("an array ends") {
                    Token::ArrayEnd => break Value::Seq(items),
                    item => items.push(build(r, item)?),
                }
            }
        }
        Token::Str(s) => Value::Str(s.into_owned()),
        Token::Number(_) => Value::Num,
        _ => Value::Literal,
    })
}

/// The member `key` of an object.
fn member<'a>(value: &'a Value, key: &str) -> &'a Value {
    let Value::Map(entries) = value else { panic!("{key}: expected an object") };
    &entries.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
}

/// Asserts that `value` is an object whose keys are the words of
/// `expected`, in order: the gates read these keys.
fn assert_keys(value: &Value, expected: &str) {
    let Value::Map(entries) = value else { panic!("{expected}: expected an object") };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, expected.split_whitespace().collect::<Vec<_>>());
}

/// A scratch path for one artifact of one test.
fn scratch(name: &str) -> String {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name).to_str().expect("utf-8 path").to_string()
}

/// Runs `bin` with the words of `flags` and then `files`, and returns
/// its stdout, failing the test on a non-zero exit.
fn run(bin: &str, flags: &str, files: &[&str]) -> String {
    let run = Command::new(bin).args(flags.split_whitespace()).args(files).output().expect("runs");
    assert!(run.status.success(), "{flags} failed:\n{}", String::from_utf8_lossy(&run.stderr));
    String::from_utf8(run.stdout).expect("utf-8 stdout")
}

/// Every heading of the `--out` report when every optional study runs.
const REPORT_HEADINGS: &str = "# EXPERIMENTS — paper vs. measured
## Table I / dataset funnel
## Known residual gaps
## Failure taxonomy and goodput accounting
## ClusterTimeline and deterministic tracing
## Streaming telemetry engine
## Query service methodology
## Beyond the figures
## Opportunity studies (Secs. III, VI, VIII)
## Closed-loop policy A/B
## Workload classification
## Data quality & ingest repair
## Reliability at scale
## Cross-system comparison methodology";

#[test]
fn every_artifact_parses_and_the_report_has_every_section() {
    let [out, bench, classifier, reliability] =
        ["report.md", "bench.json", "classifier.json", "reliability.json"].map(scratch);
    let flags = "--scale 0.01 --threads 1 --policy coshare-predicted --classify \
                 --data-quality lossy --reliability --growth 2 --cross-system philly,in2p3";
    let files = ["--out", &out, "--bench-json", &bench];
    let files =
        [&files[..], &["--classifier-json", &classifier, "--reliability-json", &reliability]];
    run(env!("CARGO_BIN_EXE_repro_figures"), flags, &files.concat());

    let bench = parse(Path::new(&bench));
    let keys = "threads scale seed jobs stages peak_rss_bytes total_secs total_jobs_per_sec";
    assert_keys(&bench, keys);
    assert_keys(member(&bench, "stages"), "trace_gen sim_event_loop telemetry analysis");
    assert_keys(member(member(&bench, "stages"), "telemetry"), "secs jobs_per_sec");

    let classifier = parse(Path::new(&classifier));
    let keys = "accuracy centroid_accuracy train_jobs test_jobs goodput_delta_pp";
    assert_keys(&classifier, keys);
    // The oracle arm ran, so the delta the classifier gate bands is set.
    assert!(matches!(member(&classifier, "goodput_delta_pp"), Value::Num));

    let reliability = parse(Path::new(&reliability));
    let keys = "sweep_worst_ratio frontier_monotone_violation growth_min_jobs_per_sec \
                study_secs sweep_classes growth";
    assert_keys(&reliability, keys);
    let Value::Seq(growth) = member(&reliability, "growth") else { panic!("growth is a list") };
    assert_eq!(growth.len(), 1);
    assert_keys(&growth[0], "factor jobs event_loop_secs jobs_per_sec");

    let report = std::fs::read_to_string(&out).expect("report written");
    for heading in REPORT_HEADINGS.lines() {
        assert!(report.lines().any(|l| l == heading), "report lacks {heading:?}");
    }
    let footer = format!("Generated by `repro_figures {flags} --out {out} ");
    assert!(report.contains(&footer.split_whitespace().collect::<Vec<_>>().join(" ")));
}

#[test]
fn serve_report_is_json_for_any_scenario_name() {
    // A scenario name is free text, and the report quotes it.
    let [scenario, out] = ["quote.toml", "serve.json"].map(scratch);
    std::fs::write(&scenario, "[scenario]\nname = \"quote\\\"d\"\n").expect("scenario written");
    let flags = "--scale 0.01 --threads 1 --requests 20";
    let stdout =
        run(env!("CARGO_BIN_EXE_serve_load"), flags, &["--scenario", &scenario, "--out", &out]);
    assert_eq!(std::fs::read_to_string(&out).expect("report written"), stdout);
    let report = parse(Path::new(&out));
    let keys = "scenario threads scale seed requests_per_mix build_secs mixes cold_baseline \
                storm_speedup digest peak_rss_bytes";
    assert_keys(&report, keys);
    let Value::Str(label) = member(&report, "scenario") else { panic!("scenario is a string") };
    assert!(label.starts_with("quote\"d#"), "{label}");
    assert_keys(member(&report, "mixes"), "point_flood cold_ab cache_storm steady");
    assert_keys(member(&report, "cold_baseline"), "requests secs qps");
}

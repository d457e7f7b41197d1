//! Scenario DSL invariants: the parser round-trips every valid
//! scenario through its canonical serialization, rejects malformed
//! input with typed line/field diagnostics (never a panic), and the
//! `supercloud` preset drives the pipeline byte-identically to a
//! hand-built reference at any thread budget.
//!
//! The property tests build scenarios *structurally* (the vendored
//! proptest has no string strategies) and sweep the numeric knobs and
//! registry names; the mutation property chews on the committed preset
//! files themselves.

use proptest::prelude::*;
use sc_repro::prelude::*;
use sc_repro::workload::ArrivalProcess;

/// Committed preset files, read from the repo rather than the embedded
/// copies so the property also covers the bytes reviewers see.
const PRESET_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");

const PRESET_FILES: [&str; 4] = ["supercloud.toml", "philly.toml", "nersc.toml", "in2p3.toml"];

fn preset_text(idx: usize) -> String {
    let path = format!("{}/{}", PRESET_DIR, PRESET_FILES[idx % PRESET_FILES.len()]);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Registry names the generator sweeps. Each list's index-0 entry is
/// the default, so the sweep covers both "explicit default" and
/// "overridden" serializations.
const FAILURE_PROFILES: [&str; 4] = ["off", "supercloud", "stress", "transient"];
const DQ_PROFILES: [DataQualityProfile; 4] = [
    DataQualityProfile::Off,
    DataQualityProfile::Supercloud,
    DataQualityProfile::Lossy,
    DataQualityProfile::Hostile,
];
const POLICIES: [PolicySpec; 4] = [
    PolicySpec::Off,
    PolicySpec::PowerCap { cap_w: 200.0 },
    PolicySpec::Coshare,
    PolicySpec::Tiered,
];
const WORKLOAD_PRESETS: [&str; 2] = ["supercloud", "philly"];

/// One of the four arrival processes from swept knobs, each knob kept
/// inside its validated range.
fn arrivals_from(idx: usize, period_days: f64, frac: f64, amplitude: f64) -> ArrivalProcess {
    match idx % 4 {
        0 => ArrivalProcess::Poisson,
        1 => ArrivalProcess::Diurnal,
        2 => ArrivalProcess::Spikes { period_days, width_days: period_days * frac, amplitude },
        _ => ArrivalProcess::UpAndDown { period_days, low: frac },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// parse(serialize(scenario)) == scenario for any scenario the
    /// validator accepts: the canonical TOML form loses nothing.
    #[test]
    fn round_trip_preserves_any_valid_scenario(
        seed in 0u64..1_000_000,
        scale_milli in 1u64..5_000,
        arrivals in (0usize..4, 0.5f64..60.0, 0.05f64..0.95, 0.0f64..8.0),
        registries in (0usize..4, 0usize..4, 0usize..4, 0usize..2),
        overrides in (1u64..2_000, 1u64..200_000, 0.0f64..1.0, 0.0f64..0.99),
    ) {
        let (arr_idx, period, frac, amp) = arrivals;
        let (fail_idx, dq_idx, policy_idx, wl_idx) = registries;
        let (users, total_jobs, gpu_frac, diurnal_amp) = overrides;
        let mut sc = Scenario {
            name: "generated".to_string(),
            description: "property-generated scenario".to_string(),
            seed,
            scale: scale_milli as f64 / 1_000.0,
            arrivals: arrivals_from(arr_idx, period, frac, amp),
            data_quality: DQ_PROFILES[dq_idx],
            policy: POLICIES[policy_idx],
            ..Scenario::default()
        };
        sc.failures.profile = FAILURE_PROFILES[fail_idx].to_string();
        if fail_idx != 0 {
            // mtbf_factor is only legal alongside an active profile.
            sc.failures.mtbf_factor = Some(frac * 2.0);
        }
        sc.workload.preset = WORKLOAD_PRESETS[wl_idx].to_string();
        sc.workload.users = Some(users as usize);
        sc.workload.total_jobs = Some(total_jobs as usize);
        sc.workload.gpu_job_fraction = Some(gpu_frac);
        sc.workload.diurnal_amplitude = Some(diurnal_amp);
        sc.cluster.nodes = Some((users % 1_000 + 1) as u32);
        let toml = sc.to_toml();
        let back = Scenario::parse(&toml)
            .unwrap_or_else(|e| panic!("canonical form must reparse: {e}\n{toml}"));
        prop_assert_eq!(&back, &sc);
        // Serialization is canonical: one more lap is byte-stable, and
        // the hash (the serve cache-key dimension) is too.
        prop_assert_eq!(back.to_toml(), toml);
        prop_assert_eq!(back.hash(), sc.hash());
    }

    /// Truncating a committed preset anywhere never panics the parser:
    /// every outcome is a clean `Ok` or a typed error with a non-empty
    /// diagnostic.
    #[test]
    fn truncated_preset_never_panics(
        preset_idx in 0usize..4,
        cut in 0usize..4_096,
    ) {
        let text = preset_text(preset_idx);
        let cut = cut % (text.len() + 1);
        // Truncate on a char boundary (presets are ASCII, but don't
        // depend on it).
        let mut end = cut;
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        match Scenario::parse(&text[..end]) {
            Ok(_) => {}
            Err(e) => prop_assert!(!e.to_string().is_empty(), "empty diagnostic"),
        }
    }

    /// Flipping any single byte of a committed preset never panics the
    /// parser, even when the flip produces invalid UTF-8 (lossily
    /// replaced) or garbles the grammar.
    #[test]
    fn mutated_preset_never_panics(
        preset_idx in 0usize..4,
        pos in 0usize..4_096,
        flip in 1usize..256,
    ) {
        let mut bytes = preset_text(preset_idx).into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(flip as u8);
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        match Scenario::parse(&mutated) {
            Ok(_) => {}
            Err(e) => prop_assert!(!e.to_string().is_empty(), "empty diagnostic"),
        }
    }
}

/// The malformed-input corpus: every entry must come back as a typed
/// error whose rendered diagnostic carries the expected line number and
/// `[section] key` context. A panic anywhere fails the whole test.
#[test]
fn malformed_corpus_yields_typed_line_and_field_errors() {
    // (document, expected substring of the rendered diagnostic)
    let corpus: &[(&str, &str)] = &[
        ("", "missing section [scenario]"),
        ("[scenario]\n", "line 1: [scenario] name: missing"),
        ("[scenario]\nname = \"\"\n", "line 2: [scenario] name"),
        ("[scenario]\nname = \"x\"\nscale = 0.0\n", "line 3: [scenario] scale: out of range"),
        ("[scenario]\nname = \"x\"\nbogus = 1\n", "line 3: [scenario] bogus: unknown key"),
        ("[bogus]\nkey = 1\n", "line 1: [bogus]: unknown section"),
        (
            "[scenario]\nname = \"x\"\n[scenario]\nname = \"y\"\n",
            "line 3: [scenario]: section appears twice",
        ),
        ("[scenario]\nname = \"x\"\nname = \"y\"\n", "line 3: [scenario] name: key appears twice"),
        (
            "[scenario]\nname = \"x\"\nseed = \"forty-two\"\n",
            "line 3: [scenario] seed: expected non-negative integer, found string",
        ),
        (
            "[scenario]\nname = \"x\"\nscale = [1.0]\n",
            "line 3: [scenario] scale: expected number, found array",
        ),
        (
            "[scenario]\nname = \"x\"\n[arrivals]\nprocess = \"lunar\"\n",
            "line 4: [arrivals] process: unknown value: lunar",
        ),
        (
            "[scenario]\nname = \"x\"\n[arrivals]\nprocess = \"spikes\"\n",
            "[arrivals] period_days: missing",
        ),
        (
            "[scenario]\nname = \"x\"\n[arrivals]\nprocess = \"poisson\"\nlow = 0.5\n",
            "line 5: [arrivals] low: out of range: not a parameter",
        ),
        (
            "[scenario]\nname = \"x\"\n[workload]\ngpu_job_fraction = 1.5\n",
            "line 4: [workload] gpu_job_fraction: out of range",
        ),
        (
            "[scenario]\nname = \"x\"\n[workload]\npreset = \"borealis\"\n",
            "line 4: [workload] preset: unknown value",
        ),
        (
            "[scenario]\nname = \"x\"\n[failures]\nprofile = \"meteor\"\n",
            "line 4: [failures] profile: unknown value",
        ),
        ("[scenario]\nname = \"x\"\n[failures]\nmtbf_factor = 0.5\n", "[failures] mtbf_factor"),
        (
            "[scenario]\nname = \"x\"\n[cluster]\nslow_tier_nodes = 4\n",
            "[cluster]: missing slow_tier_nodes and slow_tier_speed",
        ),
        ("[scenario]\nname = \"x\"\n[policy]\narm = \"warpdrive\"\n", "[policy] arm"),
        ("[scenario]\nname = \"x\"\nscale = 1.0e999\n", "line 3"),
        ("[scenario\nname = \"x\"\n", "line 1"),
        ("[scenario]\nname = \"x\" trailing\n", "line 2"),
    ];
    assert!(corpus.len() >= 10, "the issue requires at least 10 malformed cases");
    for (doc, want) in corpus {
        let err =
            Scenario::parse(doc).expect_err(&format!("parser accepted malformed document:\n{doc}"));
        let msg = err.to_string();
        assert!(
            msg.contains(want),
            "diagnostic for {doc:?}\n  got:  {msg}\n  want substring: {want}"
        );
    }
}

/// A hand-built reference for the paper's world at one scale/seed,
/// assembled from the `WorkloadSpec` and `SimConfig` defaults without
/// the scenario layer.
fn run_flag_default(scale: f64, seed: u64) -> (String, String) {
    let spec = WorkloadSpec::supercloud().scaled(scale);
    let trace = Trace::generate(&spec, seed);
    let detailed = ((2_149.0 * scale).round() as usize).max(50);
    let out = Simulation::new(SimConfig { detailed_series_jobs: detailed, ..Default::default() })
        .run(&trace);
    let json = out.dataset.to_json();
    let text = AnalysisReport::try_from_sim(&out).unwrap().render_text();
    (json, text)
}

/// The same pipeline driven by the committed `supercloud.toml` file.
fn run_scenario_file(scale: f64) -> (String, String) {
    let path = format!("{PRESET_DIR}/supercloud.toml");
    let sc = Scenario::load(&path).expect("committed preset loads");
    let spec = sc.scaled_spec(scale);
    let trace = Trace::generate(&spec, sc.seed);
    let out = Simulation::new(sc.sim_config(scale, sc.seed)).run(&trace);
    let json = out.dataset.to_json();
    let text = AnalysisReport::try_from_sim(&out).unwrap().render_text();
    (json, text)
}

/// The N-thread side of the 1-vs-N comparison; the CI determinism
/// matrix sweeps `SC_PAR_THREADS` over 1, 4, 8.
fn alt_thread_budget() -> usize {
    std::env::var("SC_PAR_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// `scenarios/supercloud.toml`, the world a bare `repro_figures` run
/// simulates, reproduces the hand-built reference byte for byte —
/// dataset JSON and rendered figure text — at any thread budget.
#[test]
fn supercloud_scenario_matches_flag_default_at_any_thread_budget() {
    let saved = sc_repro::par::current_threads();
    for budget in [1, alt_thread_budget()] {
        sc_repro::par::set_max_threads(budget);
        let (flag_json, flag_text) = run_flag_default(0.01, 42);
        let (sc_json, sc_text) = run_scenario_file(0.01);
        sc_repro::par::set_max_threads(saved);
        assert_eq!(flag_json, sc_json, "dataset JSON diverged at {budget} thread(s)");
        assert_eq!(flag_text, sc_text, "figure text diverged at {budget} thread(s)");
        sc_repro::par::set_max_threads(budget);
    }
    sc_repro::par::set_max_threads(saved);
}

/// The preset declares the paper's defaults: seed 42, scale 1.0, no
/// failures, no policy arm, no data-quality corruption.
#[test]
fn preset_defaults_match_cli_defaults() {
    let sc = Scenario::preset("supercloud").expect("preset");
    assert_eq!(sc.seed, 42);
    assert_eq!(sc.scale, 1.0);
    assert_eq!(sc.policy, PolicySpec::Off);
    assert_eq!(sc.data_quality, DataQualityProfile::Off);
    assert!(sc.failure_model(42).is_none());
}

/// Every committed preset feeds the cross-system figure at smoke scale:
/// four rows, deterministic render, and distinct scenario hashes (the
/// serve cache-key dimension).
#[test]
fn all_presets_feed_one_cross_system_figure() {
    let scenarios: Vec<Scenario> =
        Scenario::preset_names().map(|n| Scenario::preset(n).expect("preset")).collect();
    let fig = CrossSystemFig::run(&scenarios, 0.005, 42).expect("smoke scale suffices");
    assert_eq!(fig.rows.len(), 4);
    let names: Vec<&str> = fig.rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["supercloud", "philly", "nersc", "in2p3"], "input order preserved");
    for r in &fig.rows {
        assert!(r.jobs > 0, "{}: empty trace", r.name);
        assert!(r.total_gpus > 0, "{}", r.name);
        assert!((0.0..=1.0).contains(&r.single_gpu_share), "{}", r.name);
    }
    let again = CrossSystemFig::run(&scenarios, 0.005, 42).expect("second run");
    assert_eq!(fig.render(), again.render(), "comparison table must be deterministic");
    assert_eq!(fig.to_svg(), again.to_svg());
}

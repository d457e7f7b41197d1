//! Ingest-repair invariants: for any corruption profile and seed, the
//! corrupt -> ingest round trip produces a structurally valid dataset
//! and a ledger that balances per fault class; the `off` profile is a
//! byte-exact no-op. Loading a dataset from JSON never panics, whatever
//! the bytes: any input gives a dataset or a typed error.
//!
//! The small simulation is computed once (`OnceLock`) and only the
//! cheap corrupt/ingest round trip varies per proptest case, so the
//! suite stays fast while sweeping profiles and seeds.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sc_obs::json;
use sc_repro::prelude::*;
use std::sync::OnceLock;

static SIM: OnceLock<SimOutput> = OnceLock::new();

/// A 1%-scale simulation shared by every case.
fn small_sim() -> &'static SimOutput {
    SIM.get_or_init(|| {
        let mut spec = WorkloadSpec::supercloud().scaled(0.01);
        spec.users = 32;
        let trace = Trace::generate(&spec, 20_260_807);
        Simulation::new(SimConfig { detailed_series_jobs: 0, ..Default::default() }).run(&trace)
    })
}

/// The non-trivial profiles the properties sweep.
const PROFILES: [DataQualityProfile; 3] =
    [DataQualityProfile::Supercloud, DataQualityProfile::Lossy, DataQualityProfile::Hostile];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-class ledger balance: everything injected is detected, and
    /// everything detected is either repaired or quarantined. Holds
    /// for every profile at any seed by construction (the corruptor
    /// only injects faults the detector can see).
    #[test]
    fn ledger_balances_for_any_profile_and_seed(
        profile_idx in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let profile = PROFILES[profile_idx];
        let clean = &small_sim().dataset;
        let (out, injected) = corrupt_and_ingest(clean, profile, seed, &Obs::off())
            .expect("ingest succeeds on corrupted sim output");
        prop_assert!(
            out.report.balances_against(&injected),
            "profile {profile} seed {seed}: injected {:?} vs detected {:?} \
             repaired {:?} quarantined {:?}",
            injected,
            out.report.detected,
            out.report.repaired,
            out.report.quarantined
        );
    }

    /// Structural soundness of the recovered dataset: canonical order,
    /// finite submit/start timestamps, no duplicate job ids, and every
    /// GPU-analyzed record that kept its telemetry has rectangular
    /// (lockstep) per-GPU aggregates.
    #[test]
    fn recovered_dataset_is_structurally_sound(
        profile_idx in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let profile = PROFILES[profile_idx];
        let clean = &small_sim().dataset;
        let (out, _) = corrupt_and_ingest(clean, profile, seed, &Obs::off())
            .expect("ingest succeeds");
        let records = out.dataset.records();
        prop_assert!(!records.is_empty());
        let mut prev_submit = f64::NEG_INFINITY;
        let mut seen = std::collections::HashSet::new();
        for r in records {
            prop_assert!(r.sched.submit_time.is_finite());
            prop_assert!(r.sched.start_time.is_finite());
            prop_assert!(r.sched.start_time >= r.sched.submit_time - 1e-9);
            prop_assert!(r.sched.submit_time >= prev_submit, "canonical order");
            prev_submit = r.sched.submit_time;
            prop_assert!(seen.insert(r.sched.job_id), "duplicate id {:?}", r.sched.job_id);
            if let Some(gpu) = &r.gpu {
                let counts: Vec<u64> =
                    gpu.per_gpu.iter().map(|a| a.sm_util.count).collect();
                prop_assert!(
                    counts.iter().all(|&c| c == counts[0]),
                    "ragged per-GPU aggregates for {:?}",
                    r.sched.job_id
                );
            }
        }
    }

    /// The `off` profile is a byte-exact no-op on record content: zero
    /// injected faults, zero detections, and every recovered record is
    /// bit-identical to its clean counterpart. Ingest always emits the
    /// canonical `(submit, job_id)` order, so the clean side is sorted
    /// the same way before comparing — the order is the only permitted
    /// difference.
    #[test]
    fn off_profile_is_a_byte_exact_noop(seed in 0u64..1_000_000) {
        let clean = &small_sim().dataset;
        let (out, injected) =
            corrupt_and_ingest(clean, DataQualityProfile::Off, seed, &Obs::off())
                .expect("off-profile ingest succeeds");
        prop_assert_eq!(injected.total(), 0);
        prop_assert_eq!(out.report.detected.total(), 0);
        prop_assert_eq!(out.report.repaired.total(), 0);
        prop_assert_eq!(out.report.quarantined.total(), 0);
        let mut canon: Vec<_> = clean.records().iter().collect();
        canon.sort_by(|a, b| {
            a.sched
                .submit_time
                .total_cmp(&b.sched.submit_time)
                .then(a.sched.job_id.cmp(&b.sched.job_id))
        });
        prop_assert_eq!(canon.len(), out.dataset.records().len());
        for (c, r) in canon.iter().zip(out.dataset.records()) {
            // Debug formatting round-trips f64 exactly, so string
            // equality here is bit-level content equality.
            prop_assert_eq!(format!("{c:?}"), format!("{r:?}"));
        }
    }

    /// Obs events are 1:1 with the ledger: one `dq_repair` per repaired
    /// fault, one `dq_quarantine` per quarantined fault.
    #[test]
    fn obs_events_match_the_ledger(seed in 0u64..1_000_000) {
        let clean = &small_sim().dataset;
        let sink = RingSink::new(TraceLevel::Events, 1 << 16);
        let (out, _) =
            corrupt_and_ingest(clean, DataQualityProfile::Lossy, seed, &Obs::new(&sink))
                .expect("lossy ingest succeeds");
        let records = sink.records();
        let repairs = records.iter().filter(|r| r.name == "dq_repair").count() as u64;
        let quarantines =
            records.iter().filter(|r| r.name == "dq_quarantine").count() as u64;
        prop_assert_eq!(repairs, out.report.repaired.total());
        prop_assert_eq!(quarantines, out.report.quarantined.total());
    }
}

/// Determinism of the round trip itself (outside proptest so it runs
/// exactly once): the same profile and seed produce the same repaired
/// bytes and the same ledger.
#[test]
fn round_trip_is_seed_stable() {
    let clean = &small_sim().dataset;
    let (a, ia) = corrupt_and_ingest(clean, DataQualityProfile::Hostile, 99, &Obs::off())
        .expect("ingest succeeds");
    let (b, ib) = corrupt_and_ingest(clean, DataQualityProfile::Hostile, 99, &Obs::off())
        .expect("ingest succeeds");
    assert_eq!(format!("{ia:?}"), format!("{ib:?}"));
    assert_eq!(a.dataset.to_json(), b.dataset.to_json());
    assert_eq!(a.report.render(), b.report.render());
}

static EXPORT: OnceLock<String> = OnceLock::new();

/// A 0.5%-scale dataset as `export_dataset` writes it: the starting
/// point every mutation below edits.
fn exported() -> &'static str {
    EXPORT.get_or_init(|| {
        let trace = Trace::generate(&WorkloadSpec::supercloud().scaled(0.005), 20_261_018);
        let out = Simulation::new(SimConfig { detailed_series_jobs: 0, ..Default::default() })
            .run(&trace);
        out.dataset.to_json()
    })
}

/// Loads `json` the way `analyze_dataset` does, giving the dataset or
/// the error. A panic anywhere fails the test; an error must say what
/// is wrong at an offset inside the input, and a dataset must give one
/// view per GPU job, since every GPU record has GPUs to average.
fn load(json: &str) -> Result<Result<Dataset, json::Error>, TestCaseError> {
    let loaded = Dataset::from_json(json);
    match &loaded {
        Ok(ds) => prop_assert_eq!(gpu_views(ds).len(), ds.gpu_jobs().count()),
        Err(e) => prop_assert!(!e.message().is_empty() && e.offset() <= json.len(), "{e}"),
    }
    Ok(loaded)
}

/// Byte offsets just past every `"per_gpu":[` in `json`.
fn per_gpu_lists(json: &str) -> Vec<usize> {
    const KEY: &str = "\"per_gpu\":[";
    json.match_indices(KEY).map(|(i, _)| i + KEY.len()).collect()
}

/// Bytes an overwrite draws from: JSON punctuation, digits and the
/// letters of its literals, so mutations often still parse.
const JSON_BYTES: &[u8] = b"0123456789-+.eE,:[]{}\"nultrfas ";

#[test]
fn exported_dataset_loads_with_one_view_per_gpu_job() {
    let ds = load(exported()).expect("one view per GPU job").expect("the export loads");
    assert!(ds.gpu_jobs().count() > 0);
    assert_eq!(per_gpu_lists(exported()).len(), ds.gpu_jobs().count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cutting the export off at any byte never panics the loader, and
    /// the error names an offset no later than the cut.
    #[test]
    fn truncated_dataset_json_never_panics(cut in 0usize..1 << 22) {
        let json = exported();
        let mut end = cut % (json.len() + 1);
        while !json.is_char_boundary(end) {
            end -= 1;
        }
        if end < json.len() {
            let err = load(&json[..end])?.err();
            prop_assert!(err.is_some(), "a cut at byte {end} still loads");
        }
    }

    /// Deleting, duplicating or overwriting short byte ranges never
    /// panics the loader.
    #[test]
    fn edited_dataset_json_never_panics(
        edits in proptest::collection::vec(
            (0usize..3, 0usize..1 << 22, 1usize..12, proptest::collection::vec(0usize..64, 1..12)),
            1..4,
        ),
    ) {
        let mut bytes = exported().as_bytes().to_vec();
        for (op, pos, len, fill) in edits {
            let pos = pos % bytes.len();
            let end = (pos + len).min(bytes.len());
            match op {
                0 => {
                    bytes.drain(pos..end);
                }
                1 => {
                    let copy = bytes[pos..end].to_vec();
                    bytes.splice(pos..pos, copy);
                }
                _ => {
                    let fill = fill.iter().map(|&i| JSON_BYTES[i % JSON_BYTES.len()]);
                    bytes.splice(pos..end, fill);
                }
            }
        }
        let _ = load(&String::from_utf8_lossy(&bytes))?;
    }

    /// Emptying any GPU records' per-GPU lists is a typed error naming
    /// the first such job; emptying none loads as before.
    #[test]
    fn emptied_per_gpu_lists_are_typed_errors(
        picks in proptest::collection::vec(0usize..1 << 20, 0..4),
    ) {
        let json = exported();
        let lists = per_gpu_lists(json);
        let mut chosen: Vec<usize> = picks.iter().map(|p| lists[p % lists.len()]).collect();
        chosen.sort_unstable();
        chosen.dedup();
        // Cut each chosen list's contents, back to front so earlier
        // offsets stay valid. Aggregates hold no arrays, so a list ends
        // at the first `]`.
        let mut emptied = json.to_string();
        for &start in chosen.iter().rev() {
            let end = start + emptied[start..].find(']').expect("closed list");
            emptied.replace_range(start..end, "");
        }
        let loaded = load(&emptied)?;
        match chosen.first() {
            None => prop_assert!(loaded.is_ok()),
            Some(&first) => {
                // A GPU record serializes as `{"job_id":N,"per_gpu":[…]}`.
                let head = &json[..first];
                let id_at = head.rfind("\"job_id\":").expect("a job id") + "\"job_id\":".len();
                let id = &head[id_at..id_at + head[id_at..].find(',').expect("id ends")];
                let want = format!("job-{id} has no per-GPU aggregates");
                let err = loaded.err();
                prop_assert!(err.as_ref().is_some_and(|e| e.message().contains(&want)), "{err:?}");
            }
        }
    }
}

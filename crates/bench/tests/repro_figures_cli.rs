//! `repro_figures` world flags edit one field of the scenario they run
//! on, wherever they sit on the command line. The checks read the
//! `failure injection on:` line the binary prints to stderr, which
//! names the class count of the failure model that actually ran and
//! the Young checkpoint interval derived from its MTBFs.

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

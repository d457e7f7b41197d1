//! The committed scenario presets, embedded at compile time so every
//! binary can resolve `--scenario supercloud` without a checkout, and
//! loading helpers that accept either a preset name or a file path.

use crate::error::{ErrorKind, ScenarioError};
use crate::scenario::Scenario;

/// The four committed presets, embedded from `scenarios/`.
const PRESETS: [(&str, &str); 4] = [
    ("supercloud", include_str!("../../../scenarios/supercloud.toml")),
    ("philly", include_str!("../../../scenarios/philly.toml")),
    ("nersc", include_str!("../../../scenarios/nersc.toml")),
    ("in2p3", include_str!("../../../scenarios/in2p3.toml")),
];

impl Scenario {
    /// Preset names accepted by [`Scenario::preset`] and
    /// [`Scenario::load`], pipe-separated for usage strings.
    pub const PRESET_NAMES: &'static str = "supercloud|philly|nersc|in2p3";

    /// All preset names, in presentation order.
    pub fn preset_names() -> impl Iterator<Item = &'static str> {
        PRESETS.iter().map(|(name, _)| *name)
    }

    /// The embedded preset named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::UnknownName`], listing the presets, for any
    /// other name.
    ///
    /// # Panics
    ///
    /// Panics if an embedded preset fails to parse — the committed
    /// files are validated by the test suite, so that is a build bug,
    /// not an input error.
    pub fn preset(name: &str) -> Result<Scenario, ScenarioError> {
        let (_, text) = PRESETS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
            let msg = format!("preset {name} (expected {})", Scenario::PRESET_NAMES);
            ScenarioError::new(0, "", ErrorKind::UnknownName(msg))
        })?;
        Ok(Scenario::parse(text).unwrap_or_else(|e| panic!("embedded preset {name}: {e}")))
    }

    /// Loads a scenario from a preset name or a TOML file path —
    /// preset names win, so `--scenario supercloud` never depends on
    /// the working directory.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`] when the path cannot be read, or any
    /// parse/validation error from the file's contents.
    pub fn load(name_or_path: &str) -> Result<Scenario, ScenarioError> {
        if let Ok(preset) = Scenario::preset(name_or_path) {
            return Ok(preset);
        }
        let text = std::fs::read_to_string(name_or_path).map_err(|e| {
            ScenarioError::new(
                0,
                "",
                ErrorKind::Io(format!(
                    "{name_or_path}: {e} (or pass a preset: {})",
                    Scenario::PRESET_NAMES
                )),
            )
        })?;
        Scenario::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_parse_and_validate() {
        for name in Scenario::preset_names() {
            let s = Scenario::preset(name).expect("known preset");
            assert_eq!(s.name, name, "preset name matches [scenario] name");
            // Every preset resolves into runnable specs.
            let spec = s.scaled_spec(0.01);
            assert!(spec.total_jobs >= 50);
            let config = s.sim_config(0.01, s.seed);
            assert!(config.cluster.total_gpus() > 0);
        }
    }

    #[test]
    fn supercloud_preset_is_the_flag_default() {
        let s = Scenario::preset("supercloud").expect("preset");
        assert_eq!(s.workload_spec(), sc_workload::WorkloadSpec::supercloud());
        assert_eq!(s.cluster_spec(), sc_cluster::ClusterSpec::supercloud());
        assert_eq!(s.seed, 42);
        assert_eq!(s.scale, 1.0);
        assert!(s.failure_model(s.seed).is_none());
    }

    #[test]
    fn presets_hash_distinctly() {
        let hashes: Vec<u64> =
            Scenario::preset_names().map(|n| Scenario::preset(n).expect("preset").hash()).collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn unknown_preset_falls_back_to_io_error() {
        let err = Scenario::preset("no-such-preset").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::UnknownName(_)), "{err}");
        let err = Scenario::load("no-such-preset").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Io(_)), "{err}");
        assert!(err.to_string().contains(Scenario::PRESET_NAMES), "{err}");
    }

    #[test]
    fn round_trip_embeds() {
        for name in Scenario::preset_names() {
            let s = Scenario::preset(name).expect("preset");
            let round = Scenario::parse(&s.to_toml()).expect("canonical form parses");
            assert_eq!(s, round, "{name}");
        }
    }
}

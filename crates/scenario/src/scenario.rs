//! The validated [`Scenario`]: cluster shape, workload preset with
//! overrides, arrival process, failure profile, data-quality profile,
//! and policy arm, composed from one TOML file.
//!
//! A scenario is the one configuration of a pipeline run: a bare
//! `repro_figures` run is the `supercloud` preset, and each CLI flag
//! edits one field of the scenario it runs. The preset reproduces the
//! paper's world — [`Scenario::workload_spec`] returns
//! [`WorkloadSpec::supercloud`] and [`Scenario::sim_config`] returns
//! `SimConfig::default()` plus the detailed-series rule.

use crate::error::{ErrorKind, ScenarioError};
use crate::toml::{parse as parse_toml, render_value, TomlEntry, TomlSection, TomlValue};
use sc_cluster::{ClusterSpec, FailureModel, SimConfig, SlowTierSpec};
use sc_opportunity::CheckpointConfig;
use sc_policy::{PolicyParseError, PolicySpec};
use sc_telemetry::DataQualityProfile;
use sc_workload::{ArrivalProcess, WorkloadSpec};

/// Cluster shape: a named preset plus optional overrides. Only the
/// overrides are serialized, so a round-tripped scenario stays equal.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterScenario {
    /// Base preset (`supercloud` is the only one; the overrides carve
    /// every other shape out of it).
    pub preset: String,
    /// Override: GPU-node count.
    pub nodes: Option<u32>,
    /// Override: GPUs per node.
    pub gpus_per_node: Option<u32>,
    /// Override: nodes per leaf switch.
    pub nodes_per_switch: Option<u32>,
    /// Override: CPU-only nodes appended after the GPU tier.
    pub cpu_only_nodes: Option<u32>,
    /// Override: interconnect description (documentary).
    pub interconnect: Option<String>,
    /// Override: slow-tier node count (requires `slow_tier_speed`).
    pub slow_tier_nodes: Option<u32>,
    /// Override: slow-tier relative speed in (0, 1].
    pub slow_tier_speed: Option<f64>,
}

impl Default for ClusterScenario {
    fn default() -> Self {
        ClusterScenario {
            preset: "supercloud".to_string(),
            nodes: None,
            gpus_per_node: None,
            nodes_per_switch: None,
            cpu_only_nodes: None,
            interconnect: None,
            slow_tier_nodes: None,
            slow_tier_speed: None,
        }
    }
}

/// Workload population: a named preset plus optional overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadScenario {
    /// Base preset: `supercloud` or `philly`.
    pub preset: String,
    /// Override: trace length in days.
    pub duration_days: Option<f64>,
    /// Override: unique users.
    pub users: Option<usize>,
    /// Override: total jobs across the trace.
    pub total_jobs: Option<usize>,
    /// Override: fraction of jobs that are GPU jobs, in [0, 1].
    pub gpu_job_fraction: Option<f64>,
    /// Override: mean CPU campaign burst size (>= 1).
    pub cpu_burst_mean: Option<f64>,
    /// Override: diurnal modulation amplitude, in [0, 1).
    pub diurnal_amplitude: Option<f64>,
    /// Override: conference-deadline surge amplitude (>= 0).
    pub deadline_surge_amplitude: Option<f64>,
    /// Override: deadline days within the window.
    pub deadline_days: Option<Vec<f64>>,
}

impl Default for WorkloadScenario {
    fn default() -> Self {
        WorkloadScenario {
            preset: "supercloud".to_string(),
            duration_days: None,
            users: None,
            total_jobs: None,
            gpu_job_fraction: None,
            cpu_burst_mean: None,
            diurnal_amplitude: None,
            deadline_surge_amplitude: None,
            deadline_days: None,
        }
    }
}

/// Workload classification: whether the pipeline trains the `sc-learn`
/// archetype classifier, plus optional overrides of its defaults. Only
/// explicit overrides serialize, so a round-tripped scenario stays
/// equal and the resolved [`sc_learn::ClassifierConfig`] tracks the
/// library defaults when no override is given.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassifierScenario {
    /// Train and evaluate the classifier as a pipeline stage.
    pub enabled: bool,
    /// Override: decision-forest size (trees).
    pub trees: Option<usize>,
    /// Override: forest-training seed.
    pub seed: Option<u64>,
    /// Override: train-split fraction, in (0, 1). A split left without
    /// a labeled GPU job fails training with a typed error.
    pub train_fraction: Option<f64>,
}

/// Failure injection: taxonomy profile plus optional MTBF rescale.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureScenario {
    /// Taxonomy profile name (`off`, `supercloud`, `stress`,
    /// `transient`).
    pub profile: String,
    /// Scale every class MTBF by this positive factor.
    pub mtbf_factor: Option<f64>,
}

impl Default for FailureScenario {
    fn default() -> Self {
        FailureScenario { profile: "off".to_string(), mtbf_factor: None }
    }
}

/// Reliability study: ETTF/ETTR size-class accounting, the goodput
/// frontier, the Young/Daly checkpoint sweep, and the cluster-growth
/// replay. Only explicit overrides serialize, so the resolved
/// [`sc_core::ReliabilityConfig`] tracks the library defaults when no
/// override is given.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReliabilityScenario {
    /// Run the reliability study as a pipeline stage (needs a
    /// `[failures]` profile other than `off`).
    pub enabled: bool,
    /// Override: checkpoint-sweep grid points per size class.
    pub sweep_points: Option<usize>,
    /// Override: sweep span factor around the Young/Daly optimum.
    pub sweep_span: Option<f64>,
    /// Override: MTBF scale factors for the goodput frontier.
    pub mtbf_factors: Option<Vec<f64>>,
    /// Override: job-size bucket edges in GPUs, strictly increasing.
    pub size_buckets: Option<Vec<u32>>,
    /// Override: cluster-growth factors for the growth study.
    pub growth_factors: Option<Vec<f64>>,
    /// Override: checkpoint write cost in seconds.
    pub write_secs: Option<f64>,
}

/// One validated scenario: everything a pipeline run needs, parsed
/// from TOML with typed line/field diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (`[scenario] name`, required).
    pub name: String,
    /// Free-text description (optional, empty when absent).
    pub description: String,
    /// Master seed (`repro_figures --seed` edits it).
    pub seed: u64,
    /// Workload scale (`repro_figures --scale` edits it).
    pub scale: f64,
    /// Cluster shape.
    pub cluster: ClusterScenario,
    /// Workload population.
    pub workload: WorkloadScenario,
    /// Arrival-intensity process.
    pub arrivals: ArrivalProcess,
    /// Failure injection.
    pub failures: FailureScenario,
    /// Data-quality corruption profile ([`DataQualityProfile::Off`]
    /// skips the stage).
    pub data_quality: DataQualityProfile,
    /// Policy A/B arm ([`PolicySpec::Off`] skips the stage).
    pub policy: PolicySpec,
    /// Workload-classification stage.
    pub classifier: ClassifierScenario,
    /// Reliability-study stage.
    pub reliability: ReliabilityScenario,
}

impl Default for Scenario {
    /// The `supercloud` preset: the world a bare `repro_figures` run, a
    /// default `ServeConfig` and `export_dataset` all simulate.
    fn default() -> Self {
        Scenario::preset("supercloud").expect("committed preset")
    }
}

/// Typed access to one `[section]` with schema-aware errors.
struct Reader<'a> {
    sec: &'a TomlSection,
}

impl<'a> Reader<'a> {
    fn ctx(&self, key: &str) -> String {
        format!("[{}] {key}", self.sec.name)
    }

    /// Rejects any key outside the section's schema.
    fn check_keys(&self, allowed: &[&str]) -> Result<(), ScenarioError> {
        for e in &self.sec.entries {
            if !allowed.contains(&e.key.as_str()) {
                return Err(ScenarioError::new(e.line, self.ctx(&e.key), ErrorKind::UnknownKey));
            }
        }
        Ok(())
    }

    fn entry(&self, key: &str) -> Option<&'a TomlEntry> {
        self.sec.entries.iter().find(|e| e.key == key)
    }

    fn type_err(&self, e: &TomlEntry, expected: &'static str) -> ScenarioError {
        ScenarioError::new(
            e.line,
            self.ctx(&e.key),
            ErrorKind::Type { expected, found: e.value.type_name().to_string() },
        )
    }

    fn str_opt(&self, key: &str) -> Result<Option<(String, usize)>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                TomlValue::String(s) => Ok(Some((s.clone(), e.line))),
                _ => Err(self.type_err(e, "string")),
            },
        }
    }

    fn bool_opt(&self, key: &str) -> Result<Option<(bool, usize)>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match e.value {
                TomlValue::Bool(v) => Ok(Some((v, e.line))),
                _ => Err(self.type_err(e, "boolean")),
            },
        }
    }

    /// Numbers: integers coerce to float (TOML writers disagree on
    /// `1` vs `1.0`), never the reverse.
    fn f64_opt(&self, key: &str) -> Result<Option<(f64, usize)>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match e.value {
                TomlValue::Float(v) => Ok(Some((v, e.line))),
                TomlValue::Integer(v) => Ok(Some((v as f64, e.line))),
                _ => Err(self.type_err(e, "number")),
            },
        }
    }

    fn u64_opt(&self, key: &str) -> Result<Option<(u64, usize)>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match e.value {
                TomlValue::Integer(v) if v >= 0 => Ok(Some((v as u64, e.line))),
                TomlValue::Integer(v) => Err(ScenarioError::new(
                    e.line,
                    self.ctx(key),
                    ErrorKind::Range(format!("{v} must not be negative")),
                )),
                _ => Err(self.type_err(e, "non-negative integer")),
            },
        }
    }

    fn u32_opt(&self, key: &str) -> Result<Option<(u32, usize)>, ScenarioError> {
        match self.u64_opt(key)? {
            None => Ok(None),
            Some((v, line)) => u32::try_from(v).map(|v| Some((v, line))).map_err(|_| {
                ScenarioError::new(
                    line,
                    self.ctx(key),
                    ErrorKind::Range(format!("{v} exceeds the u32 range")),
                )
            }),
        }
    }

    fn f64_array_opt(&self, key: &str) -> Result<Option<(Vec<f64>, usize)>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                TomlValue::Array(items) => {
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            TomlValue::Float(v) => out.push(*v),
                            TomlValue::Integer(v) => out.push(*v as f64),
                            other => {
                                return Err(ScenarioError::new(
                                    e.line,
                                    self.ctx(key),
                                    ErrorKind::Type {
                                        expected: "array of numbers",
                                        found: format!("array containing {}", other.type_name()),
                                    },
                                ))
                            }
                        }
                    }
                    Ok(Some((out, e.line)))
                }
                _ => Err(self.type_err(e, "array of numbers")),
            },
        }
    }

    fn u32_array_opt(&self, key: &str) -> Result<Option<(Vec<u32>, usize)>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                TomlValue::Array(items) => {
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            TomlValue::Integer(v) => {
                                let v = u32::try_from(*v).map_err(|_| {
                                    ScenarioError::new(
                                        e.line,
                                        self.ctx(key),
                                        ErrorKind::Range(format!("{v} is outside the u32 range")),
                                    )
                                })?;
                                out.push(v);
                            }
                            other => {
                                return Err(ScenarioError::new(
                                    e.line,
                                    self.ctx(key),
                                    ErrorKind::Type {
                                        expected: "array of integers",
                                        found: format!("array containing {}", other.type_name()),
                                    },
                                ))
                            }
                        }
                    }
                    Ok(Some((out, e.line)))
                }
                _ => Err(self.type_err(e, "array of integers")),
            },
        }
    }
}

/// Range-checks a value, citing its source line.
fn check(
    line: usize,
    ctx: &str,
    ok: bool,
    msg: impl FnOnce() -> String,
) -> Result<(), ScenarioError> {
    if ok {
        Ok(())
    } else {
        Err(ScenarioError::new(line, ctx, ErrorKind::Range(msg())))
    }
}

impl Scenario {
    /// Section names the schema knows.
    const SECTIONS: [&'static str; 9] = [
        "scenario",
        "cluster",
        "workload",
        "arrivals",
        "failures",
        "data_quality",
        "policy",
        "classifier",
        "reliability",
    ];

    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] carrying the 1-based line and the
    /// `[section] key` context for the first grammar, schema, type, or
    /// range violation. Malformed input never panics.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = parse_toml(text)?;
        for sec in &doc.sections {
            if !Self::SECTIONS.contains(&sec.name.as_str()) {
                return Err(ScenarioError::new(
                    sec.line,
                    format!("[{}]", sec.name),
                    ErrorKind::UnknownSection,
                ));
            }
        }

        // [scenario] — the one required section.
        let sec = doc.section("scenario").ok_or_else(|| {
            ScenarioError::new(0, "", ErrorKind::Missing("section [scenario]".to_string()))
        })?;
        let r = Reader { sec };
        r.check_keys(&["name", "description", "seed", "scale"])?;
        let (name, name_line) = r.str_opt("name")?.ok_or_else(|| {
            ScenarioError::new(sec.line, "[scenario] name", ErrorKind::Missing("key".to_string()))
        })?;
        check(name_line, "[scenario] name", !name.trim().is_empty(), || {
            "name must not be empty".to_string()
        })?;
        let description = r.str_opt("description")?.map(|(s, _)| s).unwrap_or_default();
        let seed = r.u64_opt("seed")?.map(|(v, _)| v).unwrap_or(42);
        let scale = match r.f64_opt("scale")? {
            None => 1.0,
            Some((v, line)) => WorkloadSpec::check_scale(v)
                .map_err(|e| ScenarioError::new(line, "[scenario] scale", ErrorKind::Range(e)))?,
        };

        let cluster = Self::parse_cluster(&doc)?;
        let workload = Self::parse_workload(&doc)?;
        let arrivals = Self::parse_arrivals(&doc)?;
        let failures = Self::parse_failures(&doc)?;
        let data_quality = Self::parse_data_quality(&doc)?;
        let policy = Self::parse_policy(&doc)?;
        let classifier = Self::parse_classifier(&doc)?;
        let reliability = Self::parse_reliability(&doc, &failures)?;

        Ok(Scenario {
            name,
            description,
            seed,
            scale,
            cluster,
            workload,
            arrivals,
            failures,
            data_quality,
            policy,
            classifier,
            reliability,
        })
    }

    fn parse_cluster(doc: &crate::toml::TomlDoc) -> Result<ClusterScenario, ScenarioError> {
        let Some(sec) = doc.section("cluster") else {
            return Ok(ClusterScenario::default());
        };
        let r = Reader { sec };
        r.check_keys(&[
            "preset",
            "nodes",
            "gpus_per_node",
            "nodes_per_switch",
            "cpu_only_nodes",
            "interconnect",
            "slow_tier_nodes",
            "slow_tier_speed",
        ])?;
        let mut c = ClusterScenario::default();
        if let Some((preset, line)) = r.str_opt("preset")? {
            if preset != "supercloud" {
                return Err(ScenarioError::new(
                    line,
                    "[cluster] preset",
                    ErrorKind::UnknownName(format!("{preset} (expected supercloud)")),
                ));
            }
            c.preset = preset;
        }
        if let Some((v, line)) = r.u32_opt("nodes")? {
            check(line, "[cluster] nodes", v >= 1, || "need at least one node".to_string())?;
            c.nodes = Some(v);
        }
        if let Some((v, line)) = r.u32_opt("gpus_per_node")? {
            check(line, "[cluster] gpus_per_node", v >= 1, || {
                "need at least one GPU per node".to_string()
            })?;
            c.gpus_per_node = Some(v);
        }
        if let Some((v, line)) = r.u32_opt("nodes_per_switch")? {
            check(line, "[cluster] nodes_per_switch", v >= 1, || {
                "need at least one node per switch".to_string()
            })?;
            c.nodes_per_switch = Some(v);
        }
        c.cpu_only_nodes = r.u32_opt("cpu_only_nodes")?.map(|(v, _)| v);
        c.interconnect = r.str_opt("interconnect")?.map(|(s, _)| s);
        c.slow_tier_nodes = r.u32_opt("slow_tier_nodes")?.map(|(v, _)| v);
        if let Some((v, line)) = r.f64_opt("slow_tier_speed")? {
            check(line, "[cluster] slow_tier_speed", v > 0.0 && v <= 1.0, || {
                format!("{v} must be in (0, 1]")
            })?;
            c.slow_tier_speed = Some(v);
        }
        match (c.slow_tier_nodes, c.slow_tier_speed) {
            (Some(_), None) | (None, Some(_)) => {
                return Err(ScenarioError::new(
                    sec.line,
                    "[cluster]",
                    ErrorKind::Missing(
                        "slow_tier_nodes and slow_tier_speed must be set together".to_string(),
                    ),
                ))
            }
            _ => {}
        }
        Ok(c)
    }

    fn parse_workload(doc: &crate::toml::TomlDoc) -> Result<WorkloadScenario, ScenarioError> {
        let Some(sec) = doc.section("workload") else {
            return Ok(WorkloadScenario::default());
        };
        let r = Reader { sec };
        r.check_keys(&[
            "preset",
            "duration_days",
            "users",
            "total_jobs",
            "gpu_job_fraction",
            "cpu_burst_mean",
            "diurnal_amplitude",
            "deadline_surge_amplitude",
            "deadline_days",
        ])?;
        let mut w = WorkloadScenario::default();
        if let Some((preset, line)) = r.str_opt("preset")? {
            if !matches!(preset.as_str(), "supercloud" | "philly") {
                return Err(ScenarioError::new(
                    line,
                    "[workload] preset",
                    ErrorKind::UnknownName(format!("{preset} (expected supercloud|philly)")),
                ));
            }
            w.preset = preset;
        }
        if let Some((v, line)) = r.f64_opt("duration_days")? {
            check(line, "[workload] duration_days", v > 0.0 && v.is_finite(), || {
                format!("{v} must be a positive finite day count")
            })?;
            w.duration_days = Some(v);
        }
        if let Some((v, line)) = r.u64_opt("users")? {
            check(line, "[workload] users", v >= 1, || "need at least one user".to_string())?;
            w.users = Some(v as usize);
        }
        if let Some((v, line)) = r.u64_opt("total_jobs")? {
            check(line, "[workload] total_jobs", v >= 1, || "need at least one job".to_string())?;
            w.total_jobs = Some(v as usize);
        }
        if let Some((v, line)) = r.f64_opt("gpu_job_fraction")? {
            check(line, "[workload] gpu_job_fraction", (0.0..=1.0).contains(&v), || {
                format!("{v} must be a fraction in [0, 1]")
            })?;
            w.gpu_job_fraction = Some(v);
        }
        if let Some((v, line)) = r.f64_opt("cpu_burst_mean")? {
            check(line, "[workload] cpu_burst_mean", v >= 1.0 && v.is_finite(), || {
                format!("{v} must be at least 1")
            })?;
            w.cpu_burst_mean = Some(v);
        }
        if let Some((v, line)) = r.f64_opt("diurnal_amplitude")? {
            check(line, "[workload] diurnal_amplitude", (0.0..1.0).contains(&v), || {
                format!("{v} must be in [0, 1) so the intensity stays positive")
            })?;
            w.diurnal_amplitude = Some(v);
        }
        if let Some((v, line)) = r.f64_opt("deadline_surge_amplitude")? {
            check(line, "[workload] deadline_surge_amplitude", v >= 0.0 && v.is_finite(), || {
                format!("{v} must not be negative")
            })?;
            w.deadline_surge_amplitude = Some(v);
        }
        if let Some((days, line)) = r.f64_array_opt("deadline_days")? {
            for &d in &days {
                check(line, "[workload] deadline_days", d >= 0.0 && d.is_finite(), || {
                    format!("day {d} must not be negative")
                })?;
            }
            w.deadline_days = Some(days);
        }
        Ok(w)
    }

    fn parse_arrivals(doc: &crate::toml::TomlDoc) -> Result<ArrivalProcess, ScenarioError> {
        let Some(sec) = doc.section("arrivals") else {
            return Ok(ArrivalProcess::Diurnal);
        };
        let r = Reader { sec };
        r.check_keys(&["process", "period_days", "width_days", "amplitude", "low"])?;
        let (process, line) = match r.str_opt("process")? {
            Some(v) => v,
            None => ("diurnal".to_string(), sec.line),
        };
        let require = |key: &str| -> Result<(f64, usize), ScenarioError> {
            r.f64_opt(key)?.ok_or_else(|| {
                ScenarioError::new(
                    sec.line,
                    format!("[arrivals] {key}"),
                    ErrorKind::Missing(format!("key (required by process = \"{process}\")")),
                )
            })
        };
        // Keys outside the chosen process's parameter set are schema
        // violations, not silently-ignored extras.
        let applicable: &[&str] = match process.as_str() {
            "poisson" | "diurnal" => &["process"],
            "spikes" => &["process", "period_days", "width_days", "amplitude"],
            "up-and-down" => &["process", "period_days", "low"],
            other => {
                return Err(ScenarioError::new(
                    line,
                    "[arrivals] process",
                    ErrorKind::UnknownName(format!(
                        "{other} (expected poisson|diurnal|spikes|up-and-down)"
                    )),
                ))
            }
        };
        for e in &sec.entries {
            if !applicable.contains(&e.key.as_str()) {
                return Err(ScenarioError::new(
                    e.line,
                    format!("[arrivals] {}", e.key),
                    ErrorKind::Range(format!("not a parameter of process = \"{process}\"")),
                ));
            }
        }
        match process.as_str() {
            "poisson" => Ok(ArrivalProcess::Poisson),
            "diurnal" => Ok(ArrivalProcess::Diurnal),
            "spikes" => {
                let (period_days, pl) = require("period_days")?;
                check(
                    pl,
                    "[arrivals] period_days",
                    period_days > 0.0 && period_days.is_finite(),
                    || format!("{period_days} must be a positive finite day count"),
                )?;
                let (width_days, wl) = require("width_days")?;
                check(
                    wl,
                    "[arrivals] width_days",
                    width_days > 0.0 && width_days.is_finite(),
                    || format!("{width_days} must be a positive finite day count"),
                )?;
                let (amplitude, al) = require("amplitude")?;
                check(
                    al,
                    "[arrivals] amplitude",
                    amplitude >= 0.0 && amplitude.is_finite(),
                    || format!("{amplitude} must not be negative"),
                )?;
                Ok(ArrivalProcess::Spikes { period_days, width_days, amplitude })
            }
            "up-and-down" => {
                let (period_days, pl) = require("period_days")?;
                check(
                    pl,
                    "[arrivals] period_days",
                    period_days > 0.0 && period_days.is_finite(),
                    || format!("{period_days} must be a positive finite day count"),
                )?;
                let (low, ll) = require("low")?;
                check(ll, "[arrivals] low", low > 0.0 && low <= 1.0, || {
                    format!("{low} must be in (0, 1]")
                })?;
                Ok(ArrivalProcess::UpAndDown { period_days, low })
            }
            _ => unreachable!("process validated above"),
        }
    }

    fn parse_failures(doc: &crate::toml::TomlDoc) -> Result<FailureScenario, ScenarioError> {
        let Some(sec) = doc.section("failures") else {
            return Ok(FailureScenario::default());
        };
        let r = Reader { sec };
        r.check_keys(&["profile", "mtbf_factor"])?;
        let mut f = FailureScenario::default();
        if let Some((profile, line)) = r.str_opt("profile")? {
            if FailureModel::profile(&profile, 0).is_none() {
                return Err(ScenarioError::new(
                    line,
                    "[failures] profile",
                    ErrorKind::UnknownName(format!(
                        "{profile} (expected {})",
                        FailureModel::PROFILE_NAMES
                    )),
                ));
            }
            f.profile = profile;
        }
        if let Some((v, line)) = r.f64_opt("mtbf_factor")? {
            check(line, "[failures] mtbf_factor", v > 0.0 && v.is_finite(), || {
                format!("{v} must be a positive finite factor")
            })?;
            check(line, "[failures] mtbf_factor", f.profile != "off", || {
                "mtbf_factor needs a profile other than off".to_string()
            })?;
            f.mtbf_factor = Some(v);
        }
        Ok(f)
    }

    fn parse_data_quality(doc: &crate::toml::TomlDoc) -> Result<DataQualityProfile, ScenarioError> {
        let Some(sec) = doc.section("data_quality") else {
            return Ok(DataQualityProfile::Off);
        };
        let r = Reader { sec };
        r.check_keys(&["profile"])?;
        let Some((profile, line)) = r.str_opt("profile")? else {
            return Ok(DataQualityProfile::Off);
        };
        DataQualityProfile::parse(&profile).ok_or_else(|| {
            let names = DataQualityProfile::NAMES;
            let kind = ErrorKind::UnknownName(format!("{profile} (expected {names})"));
            ScenarioError::new(line, "[data_quality] profile", kind)
        })
    }

    fn parse_policy(doc: &crate::toml::TomlDoc) -> Result<PolicySpec, ScenarioError> {
        let Some(sec) = doc.section("policy") else {
            return Ok(PolicySpec::Off);
        };
        let r = Reader { sec };
        r.check_keys(&["arm"])?;
        match r.str_opt("arm")? {
            None => Ok(PolicySpec::Off),
            Some((arm, line)) => {
                let kind = match PolicySpec::parse(&arm) {
                    Ok(spec) => return Ok(spec),
                    Err(PolicyParseError::UnknownName(_)) => {
                        ErrorKind::UnknownName(format!("{arm} (expected {})", PolicySpec::NAMES))
                    }
                    Err(PolicyParseError::BadWatts(w)) => ErrorKind::Type {
                        expected: "watts after `powercap:`",
                        found: format!("{w:?}"),
                    },
                    Err(e @ PolicyParseError::WattsOutOfRange(_)) => {
                        ErrorKind::Range(e.to_string())
                    }
                };
                Err(ScenarioError::new(line, "[policy] arm", kind))
            }
        }
    }

    fn parse_classifier(doc: &crate::toml::TomlDoc) -> Result<ClassifierScenario, ScenarioError> {
        let Some(sec) = doc.section("classifier") else {
            return Ok(ClassifierScenario::default());
        };
        let r = Reader { sec };
        r.check_keys(&["enabled", "trees", "seed", "train_fraction"])?;
        let mut c = ClassifierScenario::default();
        if let Some((v, _)) = r.bool_opt("enabled")? {
            c.enabled = v;
        }
        if let Some((v, line)) = r.u64_opt("trees")? {
            check(line, "[classifier] trees", v >= 1, || "need at least one tree".to_string())?;
            c.trees = Some(v as usize);
        }
        c.seed = r.u64_opt("seed")?.map(|(v, _)| v);
        if let Some((v, line)) = r.f64_opt("train_fraction")? {
            check(line, "[classifier] train_fraction", v > 0.0 && v < 1.0, || {
                format!("{v} must be in (0, 1) so both splits stay populated")
            })?;
            c.train_fraction = Some(v);
        }
        Ok(c)
    }

    fn parse_reliability(
        doc: &crate::toml::TomlDoc,
        failures: &FailureScenario,
    ) -> Result<ReliabilityScenario, ScenarioError> {
        let Some(sec) = doc.section("reliability") else {
            return Ok(ReliabilityScenario::default());
        };
        let r = Reader { sec };
        r.check_keys(&[
            "enabled",
            "sweep_points",
            "sweep_span",
            "mtbf_factors",
            "size_buckets",
            "growth_factors",
            "write_secs",
        ])?;
        let mut rel = ReliabilityScenario::default();
        if let Some((v, line)) = r.bool_opt("enabled")? {
            check(line, "[reliability] enabled", !v || failures.profile != "off", || {
                "the study needs a [failures] profile other than off".to_string()
            })?;
            rel.enabled = v;
        }
        if let Some((v, line)) = r.u64_opt("sweep_points")? {
            check(line, "[reliability] sweep_points", v >= 2, || {
                "the sweep grid needs at least two points".to_string()
            })?;
            rel.sweep_points = Some(v as usize);
        }
        if let Some((v, line)) = r.f64_opt("sweep_span")? {
            check(line, "[reliability] sweep_span", v > 1.0 && v.is_finite(), || {
                format!("{v} must be a finite factor above 1 so the grid brackets the optimum")
            })?;
            rel.sweep_span = Some(v);
        }
        if let Some((v, line)) = r.f64_array_opt("mtbf_factors")? {
            check(line, "[reliability] mtbf_factors", !v.is_empty(), || {
                "need at least one MTBF factor".to_string()
            })?;
            check(
                line,
                "[reliability] mtbf_factors",
                v.iter().all(|f| *f > 0.0 && f.is_finite()),
                || "every factor must be positive and finite".to_string(),
            )?;
            rel.mtbf_factors = Some(v);
        }
        if let Some((v, line)) = r.u32_array_opt("size_buckets")? {
            check(line, "[reliability] size_buckets", !v.is_empty(), || {
                "need at least one bucket edge".to_string()
            })?;
            check(line, "[reliability] size_buckets", v.iter().all(|&e| e >= 1), || {
                "every edge must be at least 1 GPU".to_string()
            })?;
            check(line, "[reliability] size_buckets", v.windows(2).all(|w| w[0] < w[1]), || {
                "edges must be strictly increasing".to_string()
            })?;
            rel.size_buckets = Some(v);
        }
        if let Some((v, line)) = r.f64_array_opt("growth_factors")? {
            check(line, "[reliability] growth_factors", !v.is_empty(), || {
                "need at least one growth factor".to_string()
            })?;
            check(
                line,
                "[reliability] growth_factors",
                v.iter().all(|f| *f > 0.0 && f.is_finite()),
                || "every factor must be positive and finite".to_string(),
            )?;
            rel.growth_factors = Some(v);
        }
        if let Some((v, line)) = r.f64_opt("write_secs")? {
            check(line, "[reliability] write_secs", v > 0.0 && v.is_finite(), || {
                format!("{v} must be a positive finite checkpoint write cost")
            })?;
            rel.write_secs = Some(v);
        }
        Ok(rel)
    }

    /// The resolved reliability-study configuration: the `sc-core`
    /// defaults with this scenario's overrides applied (size buckets
    /// flow through [`Scenario::sim_config`] instead, since the
    /// accumulator lives in the simulator).
    pub fn reliability_config(&self) -> sc_core::ReliabilityConfig {
        let mut cfg = sc_core::ReliabilityConfig::default();
        if let Some(v) = self.reliability.sweep_points {
            cfg.sweep_points = v;
        }
        if let Some(v) = self.reliability.sweep_span {
            cfg.sweep_span = v;
        }
        if let Some(v) = &self.reliability.mtbf_factors {
            cfg.mtbf_factors = v.clone();
        }
        if let Some(v) = &self.reliability.growth_factors {
            cfg.growth_factors = v.clone();
        }
        if let Some(v) = self.reliability.write_secs {
            cfg.write_secs = v;
        }
        cfg
    }

    /// The resolved classifier configuration: the `sc-learn` defaults
    /// with this scenario's overrides applied. Identical to
    /// [`sc_learn::ClassifierConfig::default`] when the `[classifier]`
    /// section sets nothing.
    pub fn classifier_config(&self) -> sc_learn::ClassifierConfig {
        let mut cfg = sc_learn::ClassifierConfig::default();
        if let Some(v) = self.classifier.trees {
            cfg.trees = v;
        }
        if let Some(v) = self.classifier.seed {
            cfg.seed = v;
        }
        if let Some(v) = self.classifier.train_fraction {
            cfg.train_fraction = v;
        }
        cfg
    }

    /// The unscaled workload spec: preset, overrides, and arrival
    /// process applied.
    pub fn workload_spec(&self) -> WorkloadSpec {
        let mut spec = match self.workload.preset.as_str() {
            "philly" => WorkloadSpec::philly(),
            _ => WorkloadSpec::supercloud(),
        };
        if let Some(v) = self.workload.duration_days {
            spec.duration_days = v;
        }
        if let Some(v) = self.workload.users {
            spec.users = v;
        }
        if let Some(v) = self.workload.total_jobs {
            spec.total_jobs = v;
        }
        if let Some(v) = self.workload.gpu_job_fraction {
            spec.gpu_job_fraction = v;
        }
        if let Some(v) = self.workload.cpu_burst_mean {
            spec.cpu_burst_mean = v;
        }
        if let Some(v) = self.workload.diurnal_amplitude {
            spec.diurnal_amplitude = v;
        }
        if let Some(v) = self.workload.deadline_surge_amplitude {
            spec.deadline_surge_amplitude = v;
        }
        if let Some(v) = &self.workload.deadline_days {
            spec.deadline_days = v.clone();
        }
        spec.arrival_process = self.arrivals;
        spec
    }

    /// The workload spec scaled by `scale` (a caller such as sc-serve
    /// may run a scenario at a scale other than [`Scenario::scale`]).
    pub fn scaled_spec(&self, scale: f64) -> WorkloadSpec {
        self.workload_spec().scaled(scale)
    }

    /// The resolved cluster hardware.
    pub fn cluster_spec(&self) -> ClusterSpec {
        let mut spec = ClusterSpec::supercloud();
        if let Some(v) = self.cluster.nodes {
            spec.nodes = v;
        }
        if let Some(v) = self.cluster.gpus_per_node {
            spec.node.gpus = v;
        }
        if let Some(v) = self.cluster.nodes_per_switch {
            spec.nodes_per_switch = v;
        }
        if let Some(v) = self.cluster.cpu_only_nodes {
            spec.cpu_only_nodes = v;
        }
        if let Some(v) = &self.cluster.interconnect {
            spec.interconnect = v.clone();
        }
        if let (Some(nodes), Some(speed)) =
            (self.cluster.slow_tier_nodes, self.cluster.slow_tier_speed)
        {
            spec.slow_tier = Some(SlowTierSpec { nodes, speed });
        }
        spec
    }

    /// The failure model at `seed`, or `None` for profile `off`.
    pub fn failure_model(&self, seed: u64) -> Option<FailureModel> {
        let model = FailureModel::profile(&self.failures.profile, seed)
            .expect("profile validated at parse time")?;
        Some(match self.failures.mtbf_factor {
            // The factor was range-checked at parse time, so the typed
            // constructor cannot fail here.
            Some(f) => model.try_scaled_mtbf(f).expect("mtbf_factor validated at parse time"),
            None => model,
        })
    }

    /// The failure model the reliability study replays at `seed`: the
    /// scenario's own, or the `supercloud` taxonomy at 0.05x MTBF when
    /// the scenario injects none, so every figure has failures to
    /// measure.
    pub fn reliability_model(&self, seed: u64) -> FailureModel {
        self.failure_model(seed).unwrap_or_else(|| FailureModel::supercloud(seed).scaled_mtbf(0.05))
    }

    /// The full simulator configuration at `scale` and `seed`, the
    /// only place these rules live: the detailed-series subset follows
    /// the `2,149 × scale` rule and checkpointing runs at the Young
    /// interval for the failure model's interrupt rate.
    pub fn sim_config(&self, scale: f64, seed: u64) -> SimConfig {
        let detailed = ((2_149.0 * scale).round() as usize).max(50);
        let failures = self.failure_model(seed);
        let checkpoint = failures.as_ref().map(|model| {
            let rate: f64 = model.classes.iter().map(|c| 1.0 / c.interarrival.mtbf_secs()).sum();
            CheckpointConfig::for_mtti(1.0 / rate).sim_policy()
        });
        let mut cfg = SimConfig {
            cluster: self.cluster_spec(),
            detailed_series_jobs: detailed,
            failures,
            checkpoint,
            ..Default::default()
        };
        if let Some(edges) = &self.reliability.size_buckets {
            cfg.size_bucket_edges = edges.clone();
        }
        cfg
    }

    /// Canonical TOML serialization: only explicit overrides are
    /// emitted, so `parse(to_toml(s)) == s` exactly (floats render via
    /// `{:?}`, which round-trips `f64`).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("[scenario]\n");
        push_kv(&mut out, "name", &TomlValue::String(self.name.clone()));
        if !self.description.is_empty() {
            push_kv(&mut out, "description", &TomlValue::String(self.description.clone()));
        }
        push_kv(&mut out, "seed", &TomlValue::Integer(self.seed as i64));
        push_kv(&mut out, "scale", &TomlValue::Float(self.scale));

        out.push_str("\n[cluster]\n");
        push_kv(&mut out, "preset", &TomlValue::String(self.cluster.preset.clone()));
        push_opt_u32(&mut out, "nodes", self.cluster.nodes);
        push_opt_u32(&mut out, "gpus_per_node", self.cluster.gpus_per_node);
        push_opt_u32(&mut out, "nodes_per_switch", self.cluster.nodes_per_switch);
        push_opt_u32(&mut out, "cpu_only_nodes", self.cluster.cpu_only_nodes);
        if let Some(v) = &self.cluster.interconnect {
            push_kv(&mut out, "interconnect", &TomlValue::String(v.clone()));
        }
        push_opt_u32(&mut out, "slow_tier_nodes", self.cluster.slow_tier_nodes);
        push_opt_f64(&mut out, "slow_tier_speed", self.cluster.slow_tier_speed);

        out.push_str("\n[workload]\n");
        push_kv(&mut out, "preset", &TomlValue::String(self.workload.preset.clone()));
        push_opt_f64(&mut out, "duration_days", self.workload.duration_days);
        push_opt_usize(&mut out, "users", self.workload.users);
        push_opt_usize(&mut out, "total_jobs", self.workload.total_jobs);
        push_opt_f64(&mut out, "gpu_job_fraction", self.workload.gpu_job_fraction);
        push_opt_f64(&mut out, "cpu_burst_mean", self.workload.cpu_burst_mean);
        push_opt_f64(&mut out, "diurnal_amplitude", self.workload.diurnal_amplitude);
        push_opt_f64(&mut out, "deadline_surge_amplitude", self.workload.deadline_surge_amplitude);
        if let Some(days) = &self.workload.deadline_days {
            let items = days.iter().map(|&d| TomlValue::Float(d)).collect();
            push_kv(&mut out, "deadline_days", &TomlValue::Array(items));
        }

        out.push_str("\n[arrivals]\n");
        push_kv(&mut out, "process", &TomlValue::String(self.arrivals.label().to_string()));
        match self.arrivals {
            ArrivalProcess::Poisson | ArrivalProcess::Diurnal => {}
            ArrivalProcess::Spikes { period_days, width_days, amplitude } => {
                push_kv(&mut out, "period_days", &TomlValue::Float(period_days));
                push_kv(&mut out, "width_days", &TomlValue::Float(width_days));
                push_kv(&mut out, "amplitude", &TomlValue::Float(amplitude));
            }
            ArrivalProcess::UpAndDown { period_days, low } => {
                push_kv(&mut out, "period_days", &TomlValue::Float(period_days));
                push_kv(&mut out, "low", &TomlValue::Float(low));
            }
        }

        out.push_str("\n[failures]\n");
        push_kv(&mut out, "profile", &TomlValue::String(self.failures.profile.clone()));
        push_opt_f64(&mut out, "mtbf_factor", self.failures.mtbf_factor);

        out.push_str("\n[data_quality]\n");
        push_kv(&mut out, "profile", &TomlValue::String(self.data_quality.label().to_string()));

        out.push_str("\n[policy]\n");
        push_kv(&mut out, "arm", &TomlValue::String(self.policy.label()));

        out.push_str("\n[classifier]\n");
        push_kv(&mut out, "enabled", &TomlValue::Bool(self.classifier.enabled));
        push_opt_usize(&mut out, "trees", self.classifier.trees);
        if let Some(v) = self.classifier.seed {
            push_kv(&mut out, "seed", &TomlValue::Integer(v as i64));
        }
        push_opt_f64(&mut out, "train_fraction", self.classifier.train_fraction);

        out.push_str("\n[reliability]\n");
        push_kv(&mut out, "enabled", &TomlValue::Bool(self.reliability.enabled));
        push_opt_usize(&mut out, "sweep_points", self.reliability.sweep_points);
        push_opt_f64(&mut out, "sweep_span", self.reliability.sweep_span);
        if let Some(v) = &self.reliability.mtbf_factors {
            let items = v.iter().map(|&f| TomlValue::Float(f)).collect();
            push_kv(&mut out, "mtbf_factors", &TomlValue::Array(items));
        }
        if let Some(v) = &self.reliability.size_buckets {
            let items = v.iter().map(|&e| TomlValue::Integer(e as i64)).collect();
            push_kv(&mut out, "size_buckets", &TomlValue::Array(items));
        }
        if let Some(v) = &self.reliability.growth_factors {
            let items = v.iter().map(|&f| TomlValue::Float(f)).collect();
            push_kv(&mut out, "growth_factors", &TomlValue::Array(items));
        }
        push_opt_f64(&mut out, "write_secs", self.reliability.write_secs);
        out
    }

    /// FNV-1a 64 over the canonical serialization: two scenarios hash
    /// equal iff every parameter matches. Used as the serve-layer memo
    /// cache key dimension.
    pub fn hash(&self) -> u64 {
        sc_stats::hash::fnv1a64(self.to_toml().as_bytes())
    }

    /// Deterministic human-readable summary (golden-tested per preset).
    pub fn render_summary(&self) -> String {
        let cluster = self.cluster_spec();
        let spec = self.workload_spec();
        let mut out = String::new();
        out.push_str(&format!("scenario {} (hash {:016x})\n", self.name, self.hash()));
        if !self.description.is_empty() {
            out.push_str(&format!("  {}\n", self.description));
        }
        out.push_str(&format!(
            "  cluster:      {} nodes x {} GPUs = {} GPUs, {} nodes/switch, {}\n",
            cluster.nodes,
            cluster.node.gpus,
            cluster.total_gpus(),
            cluster.nodes_per_switch,
            cluster.interconnect
        ));
        if let Some(t) = cluster.slow_tier {
            out.push_str(&format!(
                "                slow tier: {} nodes at {}x speed\n",
                t.nodes, t.speed
            ));
        }
        if cluster.cpu_only_nodes > 0 {
            out.push_str(&format!(
                "                cpu-only tier: {} nodes\n",
                cluster.cpu_only_nodes
            ));
        }
        out.push_str(&format!(
            "  workload:     {} base: {} jobs / {} users over {} days, {}% GPU jobs\n",
            self.workload.preset,
            spec.total_jobs,
            spec.users,
            spec.duration_days,
            (spec.gpu_job_fraction * 100.0).round()
        ));
        out.push_str(&format!("  arrivals:     {}", self.arrivals.label()));
        match self.arrivals {
            ArrivalProcess::Poisson | ArrivalProcess::Diurnal => out.push('\n'),
            ArrivalProcess::Spikes { period_days, width_days, amplitude } => {
                out.push_str(&format!(
                    " (period {period_days} d, width {width_days} d, amplitude {amplitude})\n"
                ));
            }
            ArrivalProcess::UpAndDown { period_days, low } => {
                out.push_str(&format!(" (period {period_days} d, low {low})\n"));
            }
        }
        out.push_str(&format!("  failures:     {}", self.failures.profile));
        match self.failures.mtbf_factor {
            Some(f) => out.push_str(&format!(" (mtbf x {f})\n")),
            None => out.push('\n'),
        }
        out.push_str(&format!("  data-quality: {}\n", self.data_quality.label()));
        out.push_str(&format!("  policy:       {}\n", self.policy.label()));
        if self.classifier.enabled {
            let cfg = self.classifier_config();
            out.push_str(&format!(
                "  classifier:   on ({} trees, seed {}, train fraction {})\n",
                cfg.trees, cfg.seed, cfg.train_fraction
            ));
        } else {
            out.push_str("  classifier:   off\n");
        }
        if self.reliability.enabled {
            let cfg = self.reliability_config();
            let buckets = match &self.reliability.size_buckets {
                Some(v) => format!("{v:?}"),
                None => "canonical".to_string(),
            };
            out.push_str(&format!(
                "  reliability:  on ({} sweep points, span {}, mtbf factors {:?}, buckets {})\n",
                cfg.sweep_points, cfg.sweep_span, cfg.mtbf_factors, buckets
            ));
        } else {
            out.push_str("  reliability:  off\n");
        }
        out.push_str(&format!("  defaults:     scale {}, seed {}\n", self.scale, self.seed));
        out
    }
}

fn push_kv(out: &mut String, key: &str, value: &TomlValue) {
    out.push_str(key);
    out.push_str(" = ");
    render_value(value, out);
    out.push('\n');
}

fn push_opt_u32(out: &mut String, key: &str, value: Option<u32>) {
    if let Some(v) = value {
        push_kv(out, key, &TomlValue::Integer(v as i64));
    }
}

fn push_opt_usize(out: &mut String, key: &str, value: Option<usize>) {
    if let Some(v) = value {
        push_kv(out, key, &TomlValue::Integer(v as i64));
    }
}

fn push_opt_f64(out: &mut String, key: &str, value: Option<f64>) {
    if let Some(v) = value {
        push_kv(out, key, &TomlValue::Float(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "[scenario]\nname = \"minimal\"\n";

    #[test]
    fn minimal_scenario_gets_defaults() {
        let s = Scenario::parse(MINIMAL).expect("valid");
        assert_eq!(s.name, "minimal");
        assert_eq!(s.seed, 42);
        assert_eq!(s.scale, 1.0);
        assert_eq!(s.arrivals, ArrivalProcess::Diurnal);
        assert_eq!(s.failures.profile, "off");
        assert_eq!(s.data_quality, DataQualityProfile::Off);
        assert_eq!(s.policy, PolicySpec::Off);
        assert_eq!(s.workload_spec(), WorkloadSpec::supercloud());
        assert_eq!(s.cluster_spec(), ClusterSpec::supercloud());
    }

    #[test]
    fn minimal_sim_config_matches_flag_default() {
        let s = Scenario::parse(MINIMAL).expect("valid");
        let config = s.sim_config(1.0, 42);
        let default_detailed = ((2_149.0_f64 * 1.0).round() as usize).max(50);
        let reference = SimConfig { detailed_series_jobs: default_detailed, ..Default::default() };
        assert_eq!(config.cluster, reference.cluster);
        assert_eq!(config.detailed_series_jobs, reference.detailed_series_jobs);
        assert!(config.failures.is_none());
        assert!(config.checkpoint.is_none());
    }

    #[test]
    fn round_trips_exactly() {
        let text = "[scenario]\nname = \"rt\"\ndescription = \"d\"\nseed = 7\nscale = 0.25\n\
                    [cluster]\nnodes = 100\nslow_tier_nodes = 10\nslow_tier_speed = 0.5\n\
                    [workload]\npreset = \"philly\"\ngpu_job_fraction = 0.9\n\
                    deadline_days = [10.0, 20.5]\n\
                    [arrivals]\nprocess = \"spikes\"\nperiod_days = 14.0\nwidth_days = 1.5\n\
                    amplitude = 2.0\n\
                    [failures]\nprofile = \"stress\"\nmtbf_factor = 0.5\n\
                    [data_quality]\nprofile = \"lossy\"\n\
                    [policy]\narm = \"powercap:250\"\n";
        let s = Scenario::parse(text).expect("valid");
        let round = Scenario::parse(&s.to_toml()).expect("serialized form parses");
        assert_eq!(s, round);
        assert_eq!(s.hash(), round.hash());
    }

    #[test]
    fn unknown_section_and_key_carry_context() {
        let err =
            Scenario::parse("[scenario]\nname = \"x\"\n[wourkload]\npreset = \"y\"\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownSection);
        assert_eq!(err.context, "[wourkload]");
        assert_eq!(err.line, 3);

        let err =
            Scenario::parse("[scenario]\nname = \"x\"\n[workload]\nuserz = 10\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownKey);
        assert_eq!(err.context, "[workload] userz");
        assert_eq!(err.line, 4);
    }

    #[test]
    fn range_violations_are_typed() {
        let err = Scenario::parse("[scenario]\nname = \"x\"\nscale = -1.0\n").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.line, 3);
        let err = Scenario::parse("[scenario]\nname = \"x\"\nscale = 100.5\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: [scenario] scale: out of range: must be a positive factor of at most 100, \
             got 100.5"
        );

        let err = Scenario::parse("[scenario]\nname = \"x\"\n[workload]\ngpu_job_fraction = 1.5\n")
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.context, "[workload] gpu_job_fraction");
    }

    #[test]
    fn arrivals_require_their_parameters() {
        let err = Scenario::parse("[scenario]\nname = \"x\"\n[arrivals]\nprocess = \"spikes\"\n")
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Missing(_)), "{err}");
        assert_eq!(err.context, "[arrivals] period_days");

        // Parameters from the wrong process are rejected, not ignored.
        let err = Scenario::parse(
            "[scenario]\nname = \"x\"\n[arrivals]\nprocess = \"poisson\"\nlow = 0.5\n",
        )
        .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.line, 5);
    }

    #[test]
    fn power_cap_arm_below_idle_draw_is_a_located_error() {
        let err = Scenario::parse("[scenario]\nname = \"x\"\n[policy]\narm = \"powercap:1\"\n")
            .unwrap_err();
        assert_eq!(err.context, "[policy] arm");
        assert_eq!(err.line, 4);
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{:?}", err.kind);
        assert_eq!(
            err.to_string(),
            "line 4: [policy] arm: out of range: powercap needs finite watts at or above the \
             V100 idle draw of 20 W, got 1"
        );
    }

    #[test]
    fn profile_names_validated_against_real_registries() {
        let err =
            Scenario::parse("[scenario]\nname = \"x\"\n[failures]\nprofile = \"catastrophic\"\n")
                .unwrap_err();
        assert!(err.to_string().contains(FailureModel::PROFILE_NAMES), "{err}");

        let err =
            Scenario::parse("[scenario]\nname = \"x\"\n[policy]\narm = \"powercap:banana\"\n")
                .unwrap_err();
        assert_eq!(err.context, "[policy] arm");
        assert!(matches!(err.kind, ErrorKind::Type { .. }), "{:?}", err.kind);
        let err =
            Scenario::parse("[scenario]\nname = \"x\"\n[policy]\narm = \"turbo\"\n").unwrap_err();
        assert_eq!(
            err.kind,
            ErrorKind::UnknownName(format!("turbo (expected {})", PolicySpec::NAMES))
        );
    }

    #[test]
    fn philly_preset_resolves_philly_spec() {
        let s = Scenario::parse("[scenario]\nname = \"p\"\n[workload]\npreset = \"philly\"\n")
            .expect("valid");
        assert_eq!(s.workload_spec(), WorkloadSpec::philly());
    }

    #[test]
    fn classifier_section_parses_and_resolves_overrides() {
        let s = Scenario::parse(
            "[scenario]\nname = \"c\"\n[classifier]\nenabled = true\ntrees = 31\n\
             seed = 9\ntrain_fraction = 0.6\n",
        )
        .expect("valid");
        assert!(s.classifier.enabled);
        let cfg = s.classifier_config();
        assert_eq!((cfg.trees, cfg.seed), (31, 9));
        assert_eq!(cfg.train_fraction, 0.6);
        // Untouched knobs keep the library defaults.
        let defaults = sc_learn::ClassifierConfig::default();
        assert_eq!(cfg.max_jobs, defaults.max_jobs);
        assert_eq!(cfg.period_secs, defaults.period_secs);
        // Round trip: only the overrides serialize.
        let round = Scenario::parse(&s.to_toml()).expect("canonical form parses");
        assert_eq!(s, round);
    }

    #[test]
    fn absent_classifier_section_matches_library_defaults() {
        let s = Scenario::parse(MINIMAL).expect("valid");
        assert!(!s.classifier.enabled);
        assert_eq!(s.classifier_config(), sc_learn::ClassifierConfig::default());
    }

    #[test]
    fn classifier_diagnostics_are_typed() {
        let err =
            Scenario::parse("[scenario]\nname = \"x\"\n[classifier]\ntrees = 0\n").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.context, "[classifier] trees");
        assert_eq!(err.line, 4);

        let err = Scenario::parse("[scenario]\nname = \"x\"\n[classifier]\ntrain_fraction = 1.0\n")
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.context, "[classifier] train_fraction");

        let err = Scenario::parse("[scenario]\nname = \"x\"\n[classifier]\nenabled = \"yes\"\n")
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Type { .. }), "{err}");
        assert_eq!(err.context, "[classifier] enabled");

        let err = Scenario::parse("[scenario]\nname = \"x\"\n[classifier]\nforest_size = 5\n")
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownKey);
        assert_eq!(err.context, "[classifier] forest_size");
    }

    #[test]
    fn reliability_section_parses_resolves_and_round_trips() {
        let s = Scenario::parse(
            "[scenario]\nname = \"r\"\n[failures]\nprofile = \"supercloud\"\n\
             [reliability]\nenabled = true\nsweep_points = 7\nsweep_span = 3.0\n\
             mtbf_factors = [1.0, 0.1]\nsize_buckets = [2, 8, 32]\n\
             growth_factors = [2.0, 8.0]\nwrite_secs = 45.0\n",
        )
        .expect("valid");
        assert!(s.reliability.enabled);
        let cfg = s.reliability_config();
        assert_eq!((cfg.sweep_points, cfg.sweep_span), (7, 3.0));
        assert_eq!(cfg.mtbf_factors, vec![1.0, 0.1]);
        assert_eq!(cfg.growth_factors, vec![2.0, 8.0]);
        assert_eq!(cfg.write_secs, 45.0);
        // Size buckets flow into the simulator config, not the study config.
        assert_eq!(s.sim_config(1.0, 42).size_bucket_edges, vec![2, 8, 32]);
        let round = Scenario::parse(&s.to_toml()).expect("canonical form parses");
        assert_eq!(s, round);
        assert_eq!(s.hash(), round.hash());
    }

    #[test]
    fn absent_reliability_section_matches_library_defaults() {
        let s = Scenario::parse(MINIMAL).expect("valid");
        assert!(!s.reliability.enabled);
        let cfg = s.reliability_config();
        let defaults = sc_core::ReliabilityConfig::default();
        assert_eq!(cfg.sweep_points, defaults.sweep_points);
        assert_eq!(cfg.mtbf_factors, defaults.mtbf_factors);
        assert_eq!(s.sim_config(1.0, 42).size_bucket_edges, SimConfig::default().size_bucket_edges);
    }

    #[test]
    fn reliability_diagnostics_are_typed() {
        // Enabling the study without a failure profile is a range error,
        // not a silent no-op.
        let err = Scenario::parse("[scenario]\nname = \"x\"\n[reliability]\nenabled = true\n")
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.context, "[reliability] enabled");
        assert_eq!(err.line, 4);

        let err = Scenario::parse("[scenario]\nname = \"x\"\n[reliability]\nsweep_points = 1\n")
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.context, "[reliability] sweep_points");

        let err = Scenario::parse("[scenario]\nname = \"x\"\n[reliability]\nsweep_span = 1.0\n")
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.context, "[reliability] sweep_span");

        let err =
            Scenario::parse("[scenario]\nname = \"x\"\n[reliability]\nmtbf_factors = [1.0, 0.0]\n")
                .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.context, "[reliability] mtbf_factors");

        // Non-increasing bucket edges.
        let err =
            Scenario::parse("[scenario]\nname = \"x\"\n[reliability]\nsize_buckets = [8, 2]\n")
                .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.context, "[reliability] size_buckets");

        // Bucket edges must be integers, with the offending type named.
        let err =
            Scenario::parse("[scenario]\nname = \"x\"\n[reliability]\nsize_buckets = [2.5]\n")
                .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Type { .. }), "{err}");
        assert_eq!(err.context, "[reliability] size_buckets");

        let err = Scenario::parse("[scenario]\nname = \"x\"\n[reliability]\ngrowth_factor = 2.0\n")
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownKey);
        assert_eq!(err.context, "[reliability] growth_factor");

        let err = Scenario::parse("[scenario]\nname = \"x\"\n[reliability]\nwrite_secs = -1.0\n")
            .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Range(_)), "{err}");
        assert_eq!(err.context, "[reliability] write_secs");
    }

    #[test]
    fn hash_distinguishes_scenarios() {
        let a = Scenario::parse(MINIMAL).expect("valid");
        let b = Scenario::parse("[scenario]\nname = \"minimal\"\nseed = 43\n").expect("valid");
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn arms_serialize_and_hash_by_their_canonical_label() {
        let arm = |a: &str| {
            Scenario::parse(&format!("[scenario]\nname = \"x\"\n[policy]\narm = \"{a}\"\n"))
                .expect("valid")
        };
        let (written, canonical) = (arm("powercap:150.0"), arm("powercap:150"));
        assert_eq!(written, canonical);
        assert!(written.to_toml().contains("arm = \"powercap:150\"\n"), "{}", written.to_toml());
        assert_eq!(written.hash(), canonical.hash());
    }
}

//! The dataset release format: the JSON a [`Dataset`](crate::Dataset)
//! is exported as and loaded back from, the synthetic counterpart of the
//! dataset the paper published at dcc.mit.edu.
//!
//! A release holds the records and the funnel, with members in this
//! order:
//!
//! ```text
//! {"records":[RECORD,…],"funnel":{"total_jobs":N,"cpu_jobs":N,"gpu_jobs_unfiltered":N,
//!   "gpu_jobs_filtered_out":N,"gpu_jobs":N,"gpu_jobs_missing_telemetry":N,"unique_users":N}}
//! RECORD      {"sched":{"job_id":N,"user":N,"interface":"Other","gpus_requested":N,
//!                "cpus_requested":N,"mem_requested_gib":F,"submit_time":F,"start_time":F,
//!                "end_time":F,"time_limit":F,"exit":"Completed"},
//!              "gpu":null or {"job_id":N,"per_gpu":[AGGREGATES,…]}}
//! AGGREGATES  {"sm_util":AGG,"mem_util":AGG,"mem_size_util":AGG,"pcie_tx":AGG,
//!              "pcie_rx":AGG,"power_w":AGG}
//! AGG         {"min":F,"mean":F,"max":F,"count":N}
//! ```
//!
//! A float is written in Rust's `{:?}` form (`86400.0`,
//! `9.069490689337054e-5`), which reads back to the same bits, and as
//! `null` when it is not finite: an aggregate that never saw a sample
//! writes `null` for its ±inf `min` and `max`. Enums are written by
//! variant name.
//!
//! The reader builds records straight from [`Reader`] tokens, with no
//! value tree between. Members may come in any order and unknown ones
//! are skipped. A missing `gpu` reads as `null`, and a missing or
//! `null` `min` or `max` as its sentinel. Any other missing member, a
//! repeated member, a wrong type (a float where an integer goes), an
//! integer out of range, a GPU record without per-GPU aggregates, and
//! anything after the document are errors, each naming its byte offset.
//! So is a funnel that does not describe the records (see
//! `check_funnel`), at the funnel's offset.

use crate::aggregate::{Aggregate, GpuAggregates};
use crate::dataset::DatasetFunnel;
use crate::record::{
    ExitStatus, GpuJobRecord, JobId, JobRecord, SchedulerRecord, SubmissionInterface, UserId,
};
use sc_obs::json::{Error, Reader, Token};
use std::fmt::{self, Write as _};

/// `records` and `funnel` as a release document.
pub(crate) fn write(records: &[JobRecord], funnel: &DatasetFunnel) -> String {
    let mut out = String::from("{\"records\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_record(&mut out, r);
    }
    let f = funnel;
    // Writing to a `String` cannot fail.
    let _ = write!(
        out,
        "],\"funnel\":{{\"total_jobs\":{},\"cpu_jobs\":{},\"gpu_jobs_unfiltered\":{},\
         \"gpu_jobs_filtered_out\":{},\"gpu_jobs\":{},\"gpu_jobs_missing_telemetry\":{},\
         \"unique_users\":{}}}}}",
        f.total_jobs,
        f.cpu_jobs,
        f.gpu_jobs_unfiltered,
        f.gpu_jobs_filtered_out,
        f.gpu_jobs,
        f.gpu_jobs_missing_telemetry,
        f.unique_users
    );
    out
}

fn write_record(out: &mut String, r: &JobRecord) {
    let s = &r.sched;
    let _ = write!(
        out,
        "{{\"sched\":{{\"job_id\":{},\"user\":{},\"interface\":\"{}\",\"gpus_requested\":{},\
         \"cpus_requested\":{},\"mem_requested_gib\":{},\"submit_time\":{},\"start_time\":{},\
         \"end_time\":{},\"time_limit\":{},\"exit\":\"{}\"}},\"gpu\":",
        s.job_id.0,
        s.user.0,
        interface_name(s.interface),
        s.gpus_requested,
        s.cpus_requested,
        Float(s.mem_requested_gib),
        Float(s.submit_time),
        Float(s.start_time),
        Float(s.end_time),
        Float(s.time_limit),
        exit_name(s.exit)
    );
    let Some(g) = &r.gpu else {
        out.push_str("null}");
        return;
    };
    let _ = write!(out, "{{\"job_id\":{},\"per_gpu\":[", g.job_id.0);
    for (i, a) in g.per_gpu.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"sm_util\":{},\"mem_util\":{},\"mem_size_util\":{},\"pcie_tx\":{},\
             \"pcie_rx\":{},\"power_w\":{}}}",
            Agg(&a.sm_util),
            Agg(&a.mem_util),
            Agg(&a.mem_size_util),
            Agg(&a.pcie_tx),
            Agg(&a.pcie_rx),
            Agg(&a.power_w)
        );
    }
    out.push_str("]}}");
}

/// A float in its release form.
struct Float(f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{:?}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// An aggregate in its release form.
struct Agg<'a>(&'a Aggregate);

impl fmt::Display for Agg<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.0;
        write!(
            f,
            "{{\"min\":{},\"mean\":{},\"max\":{},\"count\":{}}}",
            Float(a.min),
            Float(a.mean),
            Float(a.max),
            a.count
        )
    }
}

fn interface_name(i: SubmissionInterface) -> &'static str {
    match i {
        SubmissionInterface::MapReduce => "MapReduce",
        SubmissionInterface::Batch => "Batch",
        SubmissionInterface::Interactive => "Interactive",
        SubmissionInterface::Other => "Other",
    }
}

fn exit_name(e: ExitStatus) -> &'static str {
    match e {
        ExitStatus::Completed => "Completed",
        ExitStatus::Cancelled => "Cancelled",
        ExitStatus::Failed => "Failed",
        ExitStatus::Timeout => "Timeout",
        ExitStatus::NodeFailure => "NodeFailure",
    }
}

type Result<T> = std::result::Result<T, Error>;

/// Reads a release document back into its records and funnel, and
/// checks the funnel against the records (see [`check_funnel`]).
pub(crate) fn read(json: &str) -> Result<(Vec<JobRecord>, DatasetFunnel)> {
    let mut r = Reader::new(json);
    let (mut records, mut funnel, mut funnel_at) = (Vec::new(), DatasetFunnel::default(), 0);
    let first = token(&mut r)?;
    object(&mut r, first, &["records", "funnel"], |r, name, v| {
        match name {
            "records" => records = array(r, v, record)?,
            "funnel" => (funnel, funnel_at) = read_funnel(r, v)?,
            _ => {}
        }
        Ok(())
    })?;
    // The reader itself refuses anything but whitespace after the value.
    if r.next()?.is_some() {
        return Err(r.error("trailing characters after the dataset"));
    }
    check_funnel(&records, &funnel, funnel_at)?;
    Ok((records, funnel))
}

/// Members a release may leave out: a missing `gpu` reads as `null`,
/// and a missing `min` or `max` as its ±inf sentinel.
const OPTIONAL: [&str; 3] = ["gpu", "min", "max"];

/// The next token, inside the document.
fn token<'a>(r: &mut Reader<'a>) -> Result<Token<'a>> {
    r.next()?.ok_or_else(|| r.error("unexpected end of the dataset"))
}

/// Reads the object that `first` opens. `member` reads the value `v` of
/// each member whose name is in `names`, and gets only those names.
/// Unknown members are skipped; a repeated member, and a missing one
/// other than the [`OPTIONAL`] ones, are errors. Returns the object's
/// offset.
fn object<'a>(
    r: &mut Reader<'a>,
    first: Token<'a>,
    names: &[&'static str],
    mut member: impl FnMut(&mut Reader<'a>, &'static str, Token<'a>) -> Result<()>,
) -> Result<usize> {
    let at = r.offset();
    if first != Token::ObjectStart {
        return Err(expected(r, "an object", &first));
    }
    let mut seen = 0u32;
    loop {
        match token(r)? {
            Token::ObjectEnd => break,
            Token::Key(key) => {
                let key_at = r.offset();
                let value = token(r)?;
                match names.iter().position(|&n| n == key) {
                    None => r.skip(&value)?,
                    Some(i) if seen & 1 << i != 0 => {
                        return Err(Error::new(format!("duplicate member `{key}`"), key_at));
                    }
                    Some(i) => {
                        seen |= 1 << i;
                        member(r, names[i], value)?;
                    }
                }
            }
            other => return Err(expected(r, "a member key", &other)),
        }
    }
    let missing =
        names.iter().enumerate().find(|&(i, n)| seen & 1 << i == 0 && !OPTIONAL.contains(n));
    match missing {
        Some((_, n)) => Err(Error::new(format!("missing member `{n}`"), at)),
        None => Ok(at),
    }
}

/// Reads the array that `first` opens, one `item` per element.
fn array<'a, T>(
    r: &mut Reader<'a>,
    first: Token<'a>,
    item: impl Fn(&mut Reader<'a>, Token<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    if first != Token::ArrayStart {
        return Err(expected(r, "an array", &first));
    }
    let mut items = Vec::new();
    loop {
        match token(r)? {
            Token::ArrayEnd => return Ok(items),
            v => items.push(item(r, v)?),
        }
    }
}

/// An error at the last token, `found`, where `what` should be.
fn expected(r: &Reader<'_>, what: &str, found: &Token<'_>) -> Error {
    let found = match found {
        Token::ObjectStart => "an object",
        Token::ObjectEnd => "`}`",
        Token::ArrayStart => "an array",
        Token::ArrayEnd => "`]`",
        Token::Key(_) => "a member key",
        Token::Str(_) => "a string",
        Token::Number(_) => "a number",
        Token::Bool(_) => "a boolean",
        Token::Null => "null",
    };
    r.error(format!("expected {what}, found {found}"))
}

fn float(r: &Reader<'_>, v: Token<'_>) -> Result<f64> {
    match v {
        // JSON's number grammar is a subset of what `f64` parses.
        Token::Number(text) => text.parse().map_err(|_| r.error(format!("invalid number {text}"))),
        other => Err(expected(r, "a number", &other)),
    }
}

/// A float, or `sentinel` for `null`.
fn float_or(r: &Reader<'_>, v: Token<'_>, sentinel: f64) -> Result<f64> {
    if v == Token::Null {
        Ok(sentinel)
    } else {
        float(r, v)
    }
}

/// An unsigned integer that fits a `T`.
fn uint<T: TryFrom<u64>>(r: &Reader<'_>, v: Token<'_>) -> Result<T> {
    let Token::Number(text) = v else {
        return Err(expected(r, "an unsigned integer", &v));
    };
    let n: u64 =
        text.parse().map_err(|_| r.error(format!("expected an unsigned integer, found {text}")))?;
    T::try_from(n).map_err(|_| {
        r.error(format!("integer {n} out of range for {}", std::any::type_name::<T>()))
    })
}

/// The variant of `all` that `name` calls `v`.
fn variant<T: Copy>(
    r: &Reader<'_>,
    v: Token<'_>,
    all: &[T],
    name: fn(T) -> &'static str,
) -> Result<T> {
    let Token::Str(s) = v else {
        return Err(expected(r, "a variant name", &v));
    };
    all.iter()
        .copied()
        .find(|&x| name(x) == s)
        .ok_or_else(|| r.error(format!("unknown variant `{s}`")))
}

/// A scheduler record whose every member the reader overwrites, since
/// none may be missing.
const BLANK: SchedulerRecord = SchedulerRecord {
    job_id: JobId(0),
    user: UserId(0),
    interface: SubmissionInterface::Other,
    gpus_requested: 0,
    cpus_requested: 0,
    mem_requested_gib: 0.0,
    submit_time: 0.0,
    start_time: 0.0,
    end_time: 0.0,
    time_limit: 0.0,
    exit: ExitStatus::Completed,
};

fn record<'a>(r: &mut Reader<'a>, first: Token<'a>) -> Result<JobRecord> {
    let mut rec = JobRecord { sched: BLANK, gpu: None };
    object(r, first, &["sched", "gpu"], |r, name, v| {
        match name {
            "sched" => rec.sched = scheduler_record(r, v)?,
            "gpu" if v != Token::Null => rec.gpu = Some(gpu_record(r, v)?),
            _ => {}
        }
        Ok(())
    })?;
    Ok(rec)
}

fn scheduler_record<'a>(r: &mut Reader<'a>, first: Token<'a>) -> Result<SchedulerRecord> {
    let mut s = BLANK;
    let names = [
        "job_id",
        "user",
        "interface",
        "gpus_requested",
        "cpus_requested",
        "mem_requested_gib",
        "submit_time",
        "start_time",
        "end_time",
        "time_limit",
        "exit",
    ];
    object(r, first, &names, |r, name, v| {
        match name {
            "job_id" => s.job_id = JobId(uint(r, v)?),
            "user" => s.user = UserId(uint(r, v)?),
            "interface" => s.interface = variant(r, v, &SubmissionInterface::ALL, interface_name)?,
            "gpus_requested" => s.gpus_requested = uint(r, v)?,
            "cpus_requested" => s.cpus_requested = uint(r, v)?,
            "mem_requested_gib" => s.mem_requested_gib = float(r, v)?,
            "submit_time" => s.submit_time = float(r, v)?,
            "start_time" => s.start_time = float(r, v)?,
            "end_time" => s.end_time = float(r, v)?,
            "time_limit" => s.time_limit = float(r, v)?,
            "exit" => s.exit = variant(r, v, &ExitStatus::ALL, exit_name)?,
            _ => {}
        }
        Ok(())
    })?;
    Ok(s)
}

fn gpu_record<'a>(r: &mut Reader<'a>, first: Token<'a>) -> Result<GpuJobRecord> {
    let mut g = GpuJobRecord { job_id: JobId(0), per_gpu: Vec::new() };
    let at = object(r, first, &["job_id", "per_gpu"], |r, name, v| {
        match name {
            "job_id" => g.job_id = JobId(uint(r, v)?),
            "per_gpu" => g.per_gpu = array(r, v, aggregates)?,
            _ => {}
        }
        Ok(())
    })?;
    if g.per_gpu.is_empty() {
        // A dataset averages every GPU record over its GPUs.
        return Err(Error::new(
            format!("GPU record of {} has no per-GPU aggregates", g.job_id),
            at,
        ));
    }
    Ok(g)
}

fn aggregates<'a>(r: &mut Reader<'a>, first: Token<'a>) -> Result<GpuAggregates> {
    let mut g = GpuAggregates::new();
    let names = ["sm_util", "mem_util", "mem_size_util", "pcie_tx", "pcie_rx", "power_w"];
    object(r, first, &names, |r, name, v| {
        let field = match name {
            "sm_util" => &mut g.sm_util,
            "mem_util" => &mut g.mem_util,
            "mem_size_util" => &mut g.mem_size_util,
            "pcie_tx" => &mut g.pcie_tx,
            "pcie_rx" => &mut g.pcie_rx,
            "power_w" => &mut g.power_w,
            _ => return Ok(()),
        };
        *field = aggregate(r, v)?;
        Ok(())
    })?;
    Ok(g)
}

fn aggregate<'a>(r: &mut Reader<'a>, first: Token<'a>) -> Result<Aggregate> {
    // An empty accumulator: its sentinels stand for a missing min or max.
    let mut a = Aggregate::new();
    object(r, first, &["min", "mean", "max", "count"], |r, name, v| {
        match name {
            "min" => a.min = float_or(r, v, f64::INFINITY)?,
            "mean" => a.mean = float(r, v)?,
            "max" => a.max = float_or(r, v, f64::NEG_INFINITY)?,
            "count" => a.count = uint(r, v)?,
            _ => {}
        }
        Ok(())
    })?;
    Ok(a)
}

/// Reads the funnel object that `first` opens, and its offset.
fn read_funnel<'a>(r: &mut Reader<'a>, first: Token<'a>) -> Result<(DatasetFunnel, usize)> {
    let mut f = DatasetFunnel::default();
    let names = [
        "total_jobs",
        "cpu_jobs",
        "gpu_jobs_unfiltered",
        "gpu_jobs_filtered_out",
        "gpu_jobs",
        "gpu_jobs_missing_telemetry",
        "unique_users",
    ];
    let at = object(r, first, &names, |r, name, v| {
        let count = match name {
            "total_jobs" => &mut f.total_jobs,
            "cpu_jobs" => &mut f.cpu_jobs,
            "gpu_jobs_unfiltered" => &mut f.gpu_jobs_unfiltered,
            "gpu_jobs_filtered_out" => &mut f.gpu_jobs_filtered_out,
            "gpu_jobs" => &mut f.gpu_jobs,
            "gpu_jobs_missing_telemetry" => &mut f.gpu_jobs_missing_telemetry,
            "unique_users" => &mut f.unique_users,
            _ => return Ok(()),
        };
        *count = uint(r, v)?;
        Ok(())
    })?;
    Ok((f, at))
}

/// Checks that the funnel at offset `at` describes `records`, as
/// [`Dataset::join`](crate::Dataset::join) builds both: the CPU jobs,
/// the GPU jobs and those of them without telemetry are counted over
/// the records, and the other job counts add up. The records hold every
/// user with a retained job, so `unique_users` may exceed their count,
/// by users whose only jobs were filtered out, but not fall below it.
fn check_funnel(records: &[JobRecord], f: &DatasetFunnel, at: usize) -> Result<()> {
    let gpu_jobs = records.iter().filter(|r| r.sched.is_gpu_job());
    let gpu = gpu_jobs.clone().count();
    let missing = gpu_jobs.filter(|r| r.gpu.is_none()).count();
    let held = |n: usize| (Some(n), format!("the records hold {n}"));
    let sum = |a: usize, b: usize, what: &str| {
        let n = a.checked_add(b);
        (n, n.map_or(format!("{what} overflows"), |n| format!("{what} is {n}")))
    };
    let rules = [
        ("cpu_jobs", f.cpu_jobs, held(records.len() - gpu)),
        ("gpu_jobs", f.gpu_jobs, held(gpu)),
        ("gpu_jobs_missing_telemetry", f.gpu_jobs_missing_telemetry, held(missing)),
        (
            "gpu_jobs_unfiltered",
            f.gpu_jobs_unfiltered,
            sum(f.gpu_jobs, f.gpu_jobs_filtered_out, "`gpu_jobs` + `gpu_jobs_filtered_out`"),
        ),
        (
            "total_jobs",
            f.total_jobs,
            sum(f.cpu_jobs, f.gpu_jobs_unfiltered, "`cpu_jobs` + `gpu_jobs_unfiltered`"),
        ),
    ];
    for (name, value, (want, why)) in rules {
        if Some(value) != want {
            return Err(Error::new(format!("funnel `{name}` is {value}, but {why}"), at));
        }
    }
    let mut users: Vec<UserId> = records.iter().map(|r| r.sched.user).collect();
    users.sort_unstable();
    users.dedup();
    if f.unique_users < users.len() {
        let message = format!(
            "funnel `unique_users` is {}, fewer than the {} in the records",
            f.unique_users,
            users.len()
        );
        return Err(Error::new(message, at));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::aggregate::Aggregate;
    use crate::dataset::{Dataset, DatasetFunnel};
    use crate::record::{
        ExitStatus, GpuJobRecord, JobId, JobRecord, SchedulerRecord, SubmissionInterface, UserId,
    };
    use crate::GpuAggregates;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Floats the release must keep bit for bit: signed zeros, the
    /// smallest subnormal, huge values, whole numbers and a decimal.
    const EDGE: [f64; 8] = [-0.0, 0.0, 5e-324, 1e300, -1e300, 86_400.0, 3.0, 0.1];

    /// SplitMix64: the draws one generated record is built from.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// An edge float one time in four, any finite float otherwise.
        fn float(&mut self) -> f64 {
            let bits = self.next();
            let v = f64::from_bits(bits >> 2);
            if bits.is_multiple_of(4) || !v.is_finite() {
                EDGE[(bits >> 2) as usize % EDGE.len()]
            } else {
                v
            }
        }

        /// A sampled aggregate, or a never-updated one when `fresh`.
        fn aggregate(&mut self, fresh: bool) -> Aggregate {
            if fresh {
                return Aggregate::new();
            }
            let count = self.next();
            Aggregate { min: self.float(), mean: self.float(), max: self.float(), count }
        }
    }

    /// A record of `kind`: 0 a CPU job, 1 a GPU job without telemetry,
    /// 2 a GPU job whose `gpus` GPUs all sampled, 3 one whose GPUs left
    /// some aggregates never updated.
    fn record(kind: usize, gpus: usize, seed: u64) -> JobRecord {
        let mut d = Draws(seed);
        let sched = SchedulerRecord {
            job_id: JobId(d.next()),
            user: UserId(d.next() as u32),
            interface: SubmissionInterface::ALL[d.next() as usize % 4],
            gpus_requested: if kind == 0 { 0 } else { gpus as u32 },
            cpus_requested: d.next() as u32,
            mem_requested_gib: d.float(),
            submit_time: d.float(),
            start_time: d.float(),
            end_time: d.float(),
            time_limit: d.float(),
            exit: ExitStatus::ALL[d.next() as usize % 5],
        };
        let gpu = (kind >= 2).then(|| {
            let per_gpu = (0..gpus)
                .map(|_| {
                    let mut fresh = || kind == 3 && d.next().is_multiple_of(2);
                    let [a, b, c, e, f, g] = [(); 6].map(|()| fresh());
                    GpuAggregates {
                        sm_util: d.aggregate(a),
                        mem_util: d.aggregate(b),
                        mem_size_util: d.aggregate(c),
                        pcie_tx: d.aggregate(e),
                        pcie_rx: d.aggregate(f),
                        power_w: d.aggregate(g),
                    }
                })
                .collect();
            GpuJobRecord { job_id: sched.job_id, per_gpu }
        });
        JobRecord { sched, gpu }
    }

    proptest! {
        /// Any dataset loads back bit for bit, and writes the same bytes
        /// again.
        #[test]
        fn datasets_round_trip_bit_exactly(
            specs in proptest::collection::vec((0usize..4, 1usize..9, 0u64..u64::MAX), 0..24),
            dropped in (0usize..1_000_000, 0usize..1_000),
        ) {
            let records: Vec<JobRecord> =
                specs.iter().map(|&(kind, gpus, seed)| record(kind, gpus, seed)).collect();
            // The funnel a join would give these records, with `dropped`
            // short GPU jobs and users of only those filtered out.
            let gpu = specs.iter().filter(|s| s.0 > 0).count();
            let mut users: Vec<UserId> = records.iter().map(|r| r.sched.user).collect();
            users.sort_unstable();
            users.dedup();
            let funnel = DatasetFunnel {
                total_jobs: records.len() + dropped.0,
                cpu_jobs: records.len() - gpu,
                gpu_jobs_unfiltered: gpu + dropped.0,
                gpu_jobs_filtered_out: dropped.0,
                gpu_jobs: gpu,
                gpu_jobs_missing_telemetry: specs.iter().filter(|s| s.0 == 1).count(),
                unique_users: users.len() + dropped.1,
            };
            let ds = Dataset::from_parts(records, funnel);
            let json = ds.to_json();
            let back = Dataset::from_json(&json).map_err(|e| TestCaseError::fail(e.to_string()))?;
            // `{:?}` prints each float's shortest round-trip form and
            // the sign of zero, so equal text is equal bits.
            prop_assert_eq!(format!("{:?}", back.records()), format!("{:?}", ds.records()));
            prop_assert_eq!(back.funnel(), ds.funnel());
            prop_assert_eq!(back.to_json(), json);
        }
    }

    const SCHED: &str = r#""job_id":7,"user":1,"interface":"Batch","gpus_requested":1,"cpus_requested":4,"mem_requested_gib":16.0,"submit_time":0.0,"start_time":10.0,"end_time":610.0,"time_limit":86400.0,"exit":"Failed""#;
    const FUNNEL: &str = r#""total_jobs":1,"cpu_jobs":0,"gpu_jobs_unfiltered":1,"gpu_jobs_filtered_out":0,"gpu_jobs":1,"gpu_jobs_missing_telemetry":0,"unique_users":1"#;
    const AGG: &str = r#"{"min":1.0,"mean":2.0,"max":3.0,"count":4}"#;

    /// A one-record release: the scheduler members `sched`, then `rest`
    /// of the record, under a funnel that counts the record as a GPU job
    /// without telemetry unless `rest` carries per-GPU aggregates.
    fn release(sched: &str, rest: &str) -> String {
        let missing = u8::from(!rest.contains("per_gpu"));
        let funnel = FUNNEL.replace("telemetry\":0", &format!("telemetry\":{missing}"));
        format!(r#"{{"records":[{{"sched":{{{sched}}}{rest}}}],"funnel":{{{funnel}}}}}"#)
    }

    /// The `gpu` member of a one-GPU record whose `sm_util` is `sm`.
    fn gpu(sm: &str) -> String {
        format!(
            r#","gpu":{{"job_id":7,"per_gpu":[{{"sm_util":{sm},"mem_util":{AGG},"mem_size_util":{AGG},"pcie_tx":{AGG},"pcie_rx":{AGG},"power_w":{AGG}}}]}}"#
        )
    }

    /// `json` with its last member named `member` set to `value`.
    fn with_member(json: &str, member: &str, value: &str) -> String {
        let key = format!("\"{member}\":");
        let start = json.rfind(&key).unwrap() + key.len();
        let end = start + json[start..].find([',', '}']).unwrap();
        format!("{}{value}{}", &json[..start], &json[end..])
    }

    /// The error `json` gives, as message and offset.
    fn error(json: &str) -> (String, usize) {
        let e = Dataset::from_json(json).expect_err("a bad release");
        (e.message().to_string(), e.offset())
    }

    #[test]
    fn a_missing_gpu_is_null_and_a_missing_or_null_min_or_max_is_its_sentinel() {
        for rest in [String::new(), ",\"gpu\":null".to_string()] {
            let ds = Dataset::from_json(&release(SCHED, &rest)).unwrap();
            assert_eq!(ds.records()[0].gpu, None);
            assert_eq!(ds.records()[0].sched.exit, ExitStatus::Failed);
        }
        for sm in [r#"{"mean":2.0,"count":0}"#, r#"{"min":null,"mean":2.0,"max":null,"count":0}"#] {
            let ds = Dataset::from_json(&release(SCHED, &gpu(sm))).unwrap();
            let a = ds.records()[0].gpu.as_ref().unwrap().per_gpu[0].sm_util;
            assert_eq!((a.min, a.mean, a.max), (f64::INFINITY, 2.0, f64::NEG_INFINITY));
        }
    }

    #[test]
    fn members_read_in_any_order_and_unknown_ones_are_skipped() {
        let in_order = Dataset::from_json(&release(SCHED, &gpu(AGG))).unwrap();
        let reversed = |members: &str| members.split(',').rev().collect::<Vec<_>>().join(",");
        let unknown = r#""zzz":{"a":[[1,{"b":"\"}]"}],null],"c":{}}"#;
        let json = format!(
            r#"{{{unknown},"funnel":{{{}}},"records":[{{{},"sched":{{{unknown},{}}}}}]}}"#,
            reversed(FUNNEL),
            &gpu(r#"{"count":4,"max":3.0,"zzz":[],"mean":2.0,"min":1.0}"#)[1..],
            reversed(SCHED)
        );
        let shuffled = Dataset::from_json(&json).unwrap();
        assert_eq!(format!("{:?}", shuffled.records()), format!("{:?}", in_order.records()));
        assert_eq!(shuffled.funnel(), in_order.funnel());
    }

    #[test]
    fn repeated_missing_and_mistyped_members_are_errors() {
        let json = release(&format!("\"user\":2,{SCHED}"), "");
        let second = json.match_indices("\"user\"").nth(1).unwrap().0;
        assert_eq!(error(&json), ("duplicate member `user`".to_string(), second));

        let json = release(SCHED.replace(",\"exit\":\"Failed\"", "").as_str(), "");
        let sched_at = json.find("\"sched\":").unwrap() + "\"sched\":".len();
        assert_eq!(error(&json), ("missing member `exit`".to_string(), sched_at));

        for (value, message) in [
            ("1.0", "expected an unsigned integer, found 1.0"),
            ("1e3", "expected an unsigned integer, found 1e3"),
            ("-1", "expected an unsigned integer, found -1"),
            ("4294967296", "integer 4294967296 out of range for u32"),
            ("\"1\"", "expected an unsigned integer, found a string"),
        ] {
            let json = release(&SCHED.replace("\"user\":1", &format!("\"user\":{value}")), "");
            let at = json.find("\"user\":").unwrap() + "\"user\":".len();
            assert_eq!(error(&json), (message.to_string(), at), "{value}");
        }
        let json = release(&SCHED.replace("\"Batch\"", "\"Nope\""), "");
        assert_eq!(error(&json).0, "unknown variant `Nope`");
        let json = release(&SCHED.replace("16.0", "null"), "");
        assert_eq!(error(&json).0, "expected a number, found null");
    }

    #[test]
    fn funnels_that_disagree_with_their_records_are_errors() {
        let json = release(SCHED, &gpu(AGG));
        assert!(Dataset::from_json(&json).is_ok());
        let at = json.find("\"funnel\":").unwrap() + "\"funnel\":".len();
        for (member, value, message) in [
            ("cpu_jobs", "1", "funnel `cpu_jobs` is 1, but the records hold 0"),
            ("gpu_jobs", "999999", "funnel `gpu_jobs` is 999999, but the records hold 1"),
            (
                "gpu_jobs_missing_telemetry",
                "1",
                "funnel `gpu_jobs_missing_telemetry` is 1, but the records hold 0",
            ),
            (
                "gpu_jobs_filtered_out",
                "2",
                "funnel `gpu_jobs_unfiltered` is 1, but `gpu_jobs` + `gpu_jobs_filtered_out` is 3",
            ),
            (
                "gpu_jobs_filtered_out",
                "18446744073709551615",
                "funnel `gpu_jobs_unfiltered` is 1, but `gpu_jobs` + `gpu_jobs_filtered_out` \
                 overflows",
            ),
            (
                "total_jobs",
                "2",
                "funnel `total_jobs` is 2, but `cpu_jobs` + `gpu_jobs_unfiltered` is 1",
            ),
            ("unique_users", "0", "funnel `unique_users` is 0, fewer than the 1 in the records"),
        ] {
            let edited = with_member(&json, member, value);
            assert_eq!(error(&edited), (message.to_string(), at), "{member}: {value}");
        }
        // Users whose only jobs were filtered out count too.
        let more = with_member(&json, "unique_users", "5");
        assert_eq!(Dataset::from_json(&more).unwrap().funnel().unique_users, 5);
    }

    #[test]
    fn trailing_bytes_and_gpu_records_without_gpus_are_errors() {
        let json = release(SCHED, "");
        assert_eq!(
            error(&format!("{json} x")),
            ("trailing characters after the value".into(), json.len() + 1)
        );
        let json = release(SCHED, ",\"gpu\":{\"job_id\":7,\"per_gpu\":[]}");
        let at = json.find("\"gpu\":").unwrap() + "\"gpu\":".len();
        let want = "GPU record of job-7 has no per-GPU aggregates";
        assert_eq!(error(&json), (want.to_string(), at));
    }
}

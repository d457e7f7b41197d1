//! Trace records and their canonical, deterministic JSONL encoding.

use std::fmt::Write as _;

use crate::json;

/// How much the attached sink wants to see.
///
/// Ordered: `Off < Spans < Events`. `Spans` keeps only lifetime pairs
/// ([`RecordKind::Begin`] / [`RecordKind::End`]); `Events` adds every
/// point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing.
    #[default]
    Off,
    /// Record span begin/end pairs only.
    Spans,
    /// Record spans and point events.
    Events,
}

impl TraceLevel {
    /// Parses the CLI (`--trace-level`) spelling of a level.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" | "none" => Some(TraceLevel::Off),
            "spans" => Some(TraceLevel::Spans),
            "events" | "all" => Some(TraceLevel::Events),
            _ => None,
        }
    }

    /// Names accepted by [`TraceLevel::parse`], for usage messages.
    pub const NAMES: &'static str = "off|spans|events";
}

/// The kind of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A point event.
    Event,
    /// A span opens.
    Begin,
    /// A span closes.
    End,
}

impl RecordKind {
    fn label(self) -> &'static str {
        match self {
            RecordKind::Event => "event",
            RecordKind::Begin => "begin",
            RecordKind::End => "end",
        }
    }
}

/// One structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (ids, counts).
    U64(u64),
    /// Float (durations, GPU-seconds). Encoded via Rust's shortest
    /// round-trip formatting, which is deterministic for equal bits.
    F64(f64),
    /// Static label (causes, exit statuses).
    Str(&'static str),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

/// One trace record: a sim-time stamp, a kind, a name, and fields.
///
/// Field order is the emission order (a `Vec`, not a map), which is
/// what makes the JSONL encoding canonical.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulation time, seconds from trace start.
    pub t: f64,
    /// Event or span boundary.
    pub kind: RecordKind,
    /// Record name (`submit`, `attempt`, `fault`, …).
    pub name: &'static str,
    /// Structured payload, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl TraceRecord {
    /// Encodes the record as one canonical JSON line (no trailing
    /// newline). Equal records encode to equal bytes on every platform:
    /// integer formatting is exact and float formatting is the shortest
    /// round-trip representation of the bits.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = write!(
            s,
            "{{\"t\":{},\"kind\":\"{}\",\"name\":{}",
            json::number(self.t, None),
            self.kind.label(),
            json::string(self.name)
        );
        for (key, value) in &self.fields {
            let _ = match value {
                Value::U64(v) => write!(s, ",\"{key}\":{v}"),
                Value::F64(v) => write!(s, ",\"{key}\":{}", json::number(*v, None)),
                Value::Str(v) => write!(s, ",\"{key}\":{}", json::string(v)),
            };
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_parse() {
        assert!(TraceLevel::Off < TraceLevel::Spans);
        assert!(TraceLevel::Spans < TraceLevel::Events);
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("spans"), Some(TraceLevel::Spans));
        assert_eq!(TraceLevel::parse("events"), Some(TraceLevel::Events));
        assert_eq!(TraceLevel::parse("bogus"), None);
    }

    #[test]
    fn json_line_is_canonical() {
        let rec = TraceRecord {
            t: 12.5,
            kind: RecordKind::Event,
            name: "submit",
            fields: vec![("job", Value::U64(42)), ("gpus", Value::U64(2))],
        };
        assert_eq!(
            rec.to_json_line(),
            r#"{"t":12.5,"kind":"event","name":"submit","job":42,"gpus":2}"#
        );
    }

    #[test]
    fn float_encoding_round_trips_and_rejects_non_finite() {
        let rec = TraceRecord {
            t: 0.1 + 0.2, // 0.30000000000000004 — shortest repr keeps the bits
            kind: RecordKind::Begin,
            name: "attempt",
            fields: vec![("bad", Value::F64(f64::NAN))],
        };
        let line = rec.to_json_line();
        assert!(line.contains("0.30000000000000004"), "{line}");
        assert!(line.contains("\"bad\":null"), "{line}");
    }

    #[test]
    fn strings_are_escaped() {
        let rec = TraceRecord {
            t: 0.0,
            kind: RecordKind::Event,
            name: "note",
            fields: vec![("s", Value::Str("a\"b\\c"))],
        };
        assert!(rec.to_json_line().contains(r#""s":"a\"b\\c""#));
    }

    #[test]
    fn equal_records_encode_to_equal_bytes() {
        let mk = || TraceRecord {
            t: 1_234.000_000_001,
            kind: RecordKind::End,
            name: "attempt",
            fields: vec![("job", Value::U64(7)), ("exit", Value::Str("completed"))],
        };
        assert_eq!(mk().to_json_line(), mk().to_json_line());
    }
}

//! Trace sinks and the cheap [`Obs`] handle instrumented code carries.

use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::sync::{Mutex, PoisonError};

use crate::record::{RecordKind, TraceLevel, TraceRecord, Value};

/// Destination for trace records.
///
/// Implementations must be cheap to query for their [`TraceLevel`]:
/// [`Obs`] checks the level *before* building a record, so a disabled
/// sink costs one branch per site.
pub trait TraceSink: Sync {
    /// The most detailed record kind this sink wants.
    fn level(&self) -> TraceLevel;

    /// Accepts one record. Only called when `rec` is within
    /// [`TraceSink::level`].
    fn record(&self, rec: TraceRecord);

    /// Flushes buffered output, if any.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards everything; reports [`TraceLevel::Off`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn level(&self) -> TraceLevel {
        TraceLevel::Off
    }

    fn record(&self, _rec: TraceRecord) {}
}

/// Keeps the most recent `capacity` records in memory.
///
/// Intended for tests and post-mortem inspection: run a sim, then read
/// [`RingSink::records`]. Counts what it had to drop so truncation is
/// never silent.
#[derive(Debug)]
pub struct RingSink {
    level: TraceLevel,
    capacity: usize,
    /// Each lock holder pushes or pops whole records, so the state is
    /// whole even if a holder panicked: a poisoned lock is taken as is.
    state: Mutex<RingState>,
}

#[derive(Debug, Default)]
struct RingState {
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` records at `level`.
    pub fn new(level: TraceLevel, capacity: usize) -> RingSink {
        RingSink { level, capacity, state: Mutex::new(RingState::default()) }
    }

    /// Snapshot of the retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).records.iter().cloned().collect()
    }

    /// How many records were evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).dropped
    }
}

impl TraceSink for RingSink {
    fn level(&self) -> TraceLevel {
        self.level
    }

    fn record(&self, rec: TraceRecord) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.records.len() == self.capacity {
            state.records.pop_front();
            state.dropped += 1;
        }
        state.records.push_back(rec);
    }
}

/// Writes one canonical JSON line per record through a buffer.
///
/// The writer is generic so tests can trace into a `Vec<u8>` and the
/// CLI into a file; both produce identical bytes for identical record
/// streams.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    level: TraceLevel,
    /// A poisoned lock is taken as is: a holder that panicked left at
    /// worst a partial line, which the buffered bytes show.
    writer: Mutex<BufWriter<W>>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `writer` in a buffered JSONL sink at `level`.
    pub fn new(level: TraceLevel, writer: W) -> JsonlSink<W> {
        JsonlSink { level, writer: Mutex::new(BufWriter::new(writer)) }
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(self) -> io::Result<W> {
        self.writer
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_inner()
            .map_err(|e| e.into_error())
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn level(&self) -> TraceLevel {
        self.level
    }

    fn record(&self, rec: TraceRecord) {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // I/O errors surface on flush; dropping lines silently would
        // break the byte-identical contract without a diagnosis trail.
        let _ = writer.write_all(rec.to_json_line().as_bytes());
        let _ = writer.write_all(b"\n");
    }

    fn flush(&self) -> io::Result<()> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner).flush()
    }
}

static NULL: NullSink = NullSink;

/// The fields of one trace record, in output order.
type Fields = Vec<(&'static str, Value)>;

/// The handle instrumented code carries: a sink plus its level, cached
/// so the hot-path gates are plain enum compares with no vtable call.
#[derive(Clone, Copy)]
pub struct Obs<'a> {
    sink: &'a dyn TraceSink,
    level: TraceLevel,
}

impl std::fmt::Debug for Obs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("level", &self.level).finish_non_exhaustive()
    }
}

impl<'a> Obs<'a> {
    /// An `Obs` over `sink`, caching its level.
    pub fn new(sink: &'a dyn TraceSink) -> Obs<'a> {
        Obs { sink, level: sink.level() }
    }

    /// The disabled handle: every gate is false, nothing is recorded.
    pub fn off() -> Obs<'static> {
        Obs { sink: &NULL, level: TraceLevel::Off }
    }

    /// True when point events should be emitted. `#[inline]` so the
    /// off-path compiles to a register compare at the call site.
    #[inline]
    pub fn events_on(&self) -> bool {
        self.level >= TraceLevel::Events
    }

    /// True when span begin/end records should be emitted.
    #[inline]
    pub fn spans_on(&self) -> bool {
        self.level >= TraceLevel::Spans
    }

    /// Emits a point event when [`Obs::events_on`]. `fields` builds the
    /// record's fields and runs only then, so a disabled site builds
    /// nothing.
    pub fn event(&self, t: f64, name: &'static str, fields: impl FnOnce() -> Fields) {
        self.emit(t, RecordKind::Event, name, fields);
    }

    /// Emits a span-begin record when [`Obs::spans_on`]; `fields` as for
    /// [`Obs::event`].
    pub fn begin(&self, t: f64, name: &'static str, fields: impl FnOnce() -> Fields) {
        self.emit(t, RecordKind::Begin, name, fields);
    }

    /// Emits a span-end record when [`Obs::spans_on`]; `fields` as for
    /// [`Obs::event`].
    pub fn end(&self, t: f64, name: &'static str, fields: impl FnOnce() -> Fields) {
        self.emit(t, RecordKind::End, name, fields);
    }

    #[inline]
    fn emit(&self, t: f64, kind: RecordKind, name: &'static str, fields: impl FnOnce() -> Fields) {
        let on = if kind == RecordKind::Event { self.events_on() } else { self.spans_on() };
        if on {
            self.sink.record(TraceRecord { t, kind, name, fields: fields() });
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) -> io::Result<()> {
        self.sink.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, name: &'static str) -> TraceRecord {
        TraceRecord { t, kind: RecordKind::Event, name, fields: Vec::new() }
    }

    #[test]
    fn null_sink_is_off() {
        let obs = Obs::off();
        assert!(!obs.events_on());
        assert!(!obs.spans_on());
        obs.flush().unwrap();
    }

    #[test]
    fn ring_sink_keeps_newest_and_counts_drops() {
        let ring = RingSink::new(TraceLevel::Events, 2);
        for i in 0..5 {
            ring.record(rec(i as f64, "e"));
        }
        let kept = ring.records();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].t, 3.0);
        assert_eq!(kept[1].t, 4.0);
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let sink = JsonlSink::new(TraceLevel::Events, Vec::new());
        let obs = Obs::new(&sink);
        assert!(obs.events_on() && obs.spans_on());
        obs.event(1.0, "a", || vec![("k", Value::U64(1))]);
        obs.begin(2.0, "b", Vec::new);
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text, "{\"t\":1,\"kind\":\"event\",\"name\":\"a\",\"k\":1}\n{\"t\":2,\"kind\":\"begin\",\"name\":\"b\"}\n");
    }

    #[test]
    fn spans_level_gates_events() {
        let ring = RingSink::new(TraceLevel::Spans, 8);
        let obs = Obs::new(&ring);
        assert!(obs.spans_on());
        assert!(!obs.events_on());
        // Point events are below the level: nothing is recorded.
        obs.event(1.0, "e", Vec::new);
        assert!(ring.records().is_empty());
        // Spans are within it.
        obs.begin(2.0, "s", || vec![("k", Value::U64(1))]);
        obs.end(3.0, "s", Vec::new);
        let kinds: Vec<RecordKind> = ring.records().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [RecordKind::Begin, RecordKind::End]);
        // With tracing off no field closure ever runs.
        let off = Obs::off();
        off.event(4.0, "e", || panic!("event fields built while off"));
        off.begin(5.0, "s", || panic!("begin fields built while off"));
        off.end(6.0, "s", || panic!("end fields built while off"));
    }
}

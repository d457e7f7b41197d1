//! Wall-clock per-stage spans for the analysis pipeline.
//!
//! Unlike everything else in this crate, stage spans measure *real*
//! time: how long telemetry synthesis or a figure computation actually
//! took on this machine. They are explicitly outside the determinism
//! contract — two runs of the same seed produce different durations —
//! and feed only the Chrome trace exporter, never the JSONL trace.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One completed wall-clock span, relative to the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpan {
    /// Stage name (`telemetry`, `fig:gpu_util`, …).
    pub name: String,
    /// Start offset from the log origin, seconds.
    pub start_secs: f64,
    /// Duration, seconds.
    pub dur_secs: f64,
}

/// Collects wall-clock stage spans; safe to share across `sc_par`
/// worker threads.
#[derive(Debug)]
pub struct StageLog {
    t0: Instant,
    /// Holders push or copy whole spans, so a poisoned lock is taken
    /// as is.
    spans: Mutex<Vec<StageSpan>>,
}

impl Default for StageLog {
    fn default() -> StageLog {
        StageLog::new()
    }
}

impl StageLog {
    /// A log whose origin is now.
    pub fn new() -> StageLog {
        StageLog { t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Runs `f`, recording a span named `name` around it.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.t0.elapsed().as_secs_f64();
        let out = f();
        let dur = self.t0.elapsed().as_secs_f64() - start;
        self.push(name, start, dur);
        out
    }

    /// Seconds since the log origin — the `start_secs` to use when
    /// recording an externally-timed span via [`StageLog::push`].
    pub fn elapsed_secs(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Records an already-measured span.
    pub fn push(&self, name: &str, start_secs: f64, dur_secs: f64) {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(StageSpan {
            name: name.to_string(),
            start_secs,
            dur_secs,
        });
    }

    /// Completed spans sorted by start time then name, so export order
    /// does not depend on which worker thread finished first.
    pub fn spans(&self) -> Vec<StageSpan> {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner).clone();
        spans.sort_by(|a, b| {
            a.start_secs.total_cmp(&b.start_secs).then_with(|| a.name.cmp(&b.name))
        });
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_records_a_span_and_returns_the_value() {
        let log = StageLog::new();
        let v = log.time("work", || 42);
        assert_eq!(v, 42);
        let spans = log.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "work");
        assert!(spans[0].dur_secs >= 0.0);
    }

    #[test]
    fn spans_sort_by_start_then_name() {
        let log = StageLog::new();
        log.push("b", 1.0, 0.5);
        log.push("a", 1.0, 0.5);
        log.push("c", 0.0, 2.0);
        let names: Vec<String> = log.spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
    }
}

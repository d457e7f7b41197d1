//! Chrome trace-event export of wall-clock stage spans.
//!
//! Produces the JSON object format understood by `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev): complete (`"ph":"X"`)
//! events with microsecond timestamps. Overlapping spans — sc-serve
//! records one per computed query from several executor workers — are
//! spread across track ids greedily so every span gets its own row.

use std::fmt::Write as _;

use crate::json;
use crate::stagelog::StageSpan;

/// Renders `spans` as a Chrome trace-event JSON document.
///
/// Load the result in `chrome://tracing` or drop it on
/// <https://ui.perfetto.dev>. Lane (`tid`) assignment is greedy
/// first-fit over spans sorted by start time, so concurrent stages
/// stack into parallel rows.
pub fn chrome_trace_json(spans: &[StageSpan]) -> String {
    let mut ordered: Vec<&StageSpan> = spans.iter().collect();
    ordered.sort_by(|a, b| a.start_secs.total_cmp(&b.start_secs).then_with(|| a.name.cmp(&b.name)));

    // lane_free[i] = time lane i becomes free; first-fit per span.
    let mut lane_free: Vec<f64> = Vec::new();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in ordered.iter().enumerate() {
        let lane = match lane_free.iter().position(|&free| free <= span.start_secs) {
            Some(lane) => lane,
            None => {
                lane_free.push(0.0);
                lane_free.len() - 1
            }
        };
        lane_free[lane] = span.start_secs + span.dur_secs;

        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            json::string(&span.name),
            (span.start_secs * 1e6).round() as u64,
            (span.dur_secs * 1e6).round().max(1.0) as u64,
            lane
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, dur: f64) -> StageSpan {
        StageSpan { name: name.to_string(), start_secs: start, dur_secs: dur }
    }

    #[test]
    fn empty_log_is_a_valid_document() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }

    #[test]
    fn spans_become_complete_events_in_microseconds() {
        let doc = chrome_trace_json(&[span("telemetry", 0.5, 1.25)]);
        assert!(doc.contains("\"name\":\"telemetry\""), "{doc}");
        assert!(doc.contains("\"ph\":\"X\""), "{doc}");
        assert!(doc.contains("\"ts\":500000"), "{doc}");
        assert!(doc.contains("\"dur\":1250000"), "{doc}");
    }

    #[test]
    fn overlapping_spans_get_distinct_lanes() {
        let doc = chrome_trace_json(&[
            span("a", 0.0, 2.0),
            span("b", 1.0, 2.0), // overlaps a → lane 1
            span("c", 2.5, 1.0), // after a ends → back to lane 0
        ]);
        let tids: Vec<&str> = doc.matches("\"tid\":0").collect();
        assert_eq!(tids.len(), 2, "{doc}");
        assert!(doc.contains("\"tid\":1"), "{doc}");
    }

    #[test]
    fn zero_duration_spans_stay_visible() {
        let doc = chrome_trace_json(&[span("blip", 1.0, 0.0)]);
        assert!(doc.contains("\"dur\":1"), "{doc}");
    }
}

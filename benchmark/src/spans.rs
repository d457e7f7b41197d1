//! Spans the benchmark records around its own calls into the
//! program's public functions.
//!
//! A span has a name (`layer.call`), start and end, a parent, and the
//! id of the operation it belongs to. Spans stay in memory and are
//! written once, as Chrome-trace JSON, when the run ends. Self time is
//! a span's duration minus the union of its children's intervals.

use crate::measure::HighWater;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The operation (iteration, study or request) the span belongs to.
    pub request: u64,
    /// Chrome-trace lane; concurrent requests need separate lanes.
    pub lane: u32,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
    /// Memory high-water during the call, when it was tracked.
    pub rss_mib: Option<f64>,
}

#[derive(Debug)]
struct Open {
    id: usize,
    track_rss: bool,
    peak_kib: u64,
}

/// Records spans; a tracer made with [`Tracer::off`] records nothing,
/// so untraced operations run the same code without its cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    high_water: HighWater,
}

/// The id [`Tracer::open`] and [`Tracer::record`] return when off.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    pub fn new(high_water: HighWater) -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            high_water,
        }
    }

    pub fn off() -> Tracer {
        Tracer { enabled: false, ..Tracer::new(HighWater::new()) }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.at(Instant::now())
    }

    /// `t` as seconds since the tracer started.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Opens a span under the innermost open one. With `track_rss` the
    /// memory high-water is reset first, so the span records its own
    /// peak; the enclosing tracked span keeps the larger of the two.
    pub fn open(&mut self, name: &'static str, request: u64, track_rss: bool) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let mut peak_kib = 0;
        if track_rss {
            let before = self.high_water.read_kib();
            if let Some(outer) = self.stack.iter_mut().rev().find(|o| o.track_rss) {
                outer.peak_kib = outer.peak_kib.max(before);
            }
            if !self.high_water.reset() {
                peak_kib = before;
            }
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().map(|o| o.id),
            request,
            lane: 0,
            start: self.now(),
            end: f64::NAN,
            rss_mib: None,
        });
        self.stack.push(Open { id, track_rss, peak_kib });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let open = self.stack.pop().expect("close without a matching open");
        assert_eq!(open.id, id, "spans must close innermost first");
        self.spans[id].end = self.now();
        if open.track_rss {
            let peak = open.peak_kib.max(self.high_water.read_kib());
            self.spans[id].rss_mib = Some(peak as f64 / 1024.0);
            if let Some(outer) = self.stack.iter_mut().rev().find(|o| o.track_rss) {
                outer.peak_kib = outer.peak_kib.max(peak);
            }
        }
    }

    /// Times `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        track_rss: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, request, track_rss);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        lane: u32,
        start: f64,
        end: f64,
    ) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        self.spans.push(Span { name, parent, request, lane, start, end, rss_mib: None });
        self.spans.len() - 1
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        kids
    }

    /// Self time of every span, seconds, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let kids = self.children();
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let intervals: Vec<(f64, f64)> =
                    kids[i].iter().map(|&k| (self.spans[k].start, self.spans[k].end)).collect();
                (s.end - s.start - covered(s.start, s.end, intervals)).max(0.0)
            })
            .collect()
    }

    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// For every root span whose subtree holds a span matching `pick`,
    /// the summed self time (seconds) of those spans.
    pub fn self_per_root(&self, pick: impl Fn(&Span) -> bool) -> Vec<f64> {
        let selfs = self.self_times();
        let mut per_root: Vec<Option<f64>> = vec![None; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if pick(s) {
                let slot = &mut per_root[self.root_of(i)];
                *slot = Some(slot.unwrap_or(0.0) + selfs[i]);
            }
        }
        per_root.into_iter().flatten().collect()
    }

    /// Largest recorded memory high-water among spans matching `pick`.
    pub fn max_rss_mib(&self, pick: impl Fn(&Span) -> bool) -> Option<f64> {
        self.spans.iter().filter(|s| pick(s)).filter_map(|s| s.rss_mib).max_by(f64::total_cmp)
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    /// Each event's `args` carry its id, parent, request, self time and
    /// memory high-water.
    pub fn chrome_json(&self, category: &str) -> String {
        let selfs = self.self_times();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let rss = s.rss_mib.map_or_else(|| "null".to_string(), |m| format!("{m:.3}"));
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{category}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"request\":{},\"self_us\":{:.3},\"rss_mib\":{rss}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.lane,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.request,
                selfs[i] * 1e6,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of the part of `[start, end]` that `intervals` cover, each
/// point counted once however many intervals overlap it.
pub fn covered(start: f64, end: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new(HighWater::at("/nonexistent-dir/status", "/nonexistent-dir/clear_refs"))
    }

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(covered(0.0, 10.0, vec![(1.0, 4.0), (2.0, 6.0), (8.0, 9.0)]), 6.0);
        assert_eq!(covered(0.0, 10.0, vec![]), 0.0);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(covered(2.0, 5.0, vec![(0.0, 3.0), (4.0, 9.0)]), 2.0);
        // A child inside an earlier, longer one adds nothing.
        assert_eq!(covered(0.0, 10.0, vec![(1.0, 8.0), (2.0, 3.0)]), 7.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = tracer();
        let root = t.record("op", None, 0, 0, 0.0, 10.0);
        t.record("cluster.event_loop", Some(root), 0, 0, 1.0, 4.0);
        t.record("telemetry.synthesis", Some(root), 0, 1, 2.0, 6.0);
        let grand = t.record("core.analysis", Some(root), 0, 0, 7.0, 9.0);
        t.record("core.render", Some(grand), 0, 0, 8.0, 8.5);
        let selfs = t.self_times();
        assert!((selfs[root] - 3.0).abs() < 1e-12, "{selfs:?}");
        assert!((selfs[grand] - 1.5).abs() < 1e-12, "{selfs:?}");
        assert!((selfs[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_sums_per_root() {
        let mut t = tracer();
        for (r, base) in [(0u64, 0.0), (1, 20.0)] {
            let root = t.record("op", None, r, 0, base, base + 10.0);
            t.record("core.analysis", Some(root), r, 0, base + 1.0, base + 2.0);
            t.record("core.render", Some(root), r, 0, base + 3.0, base + 3.5 + r as f64);
        }
        t.record("setup", None, 9, 0, 40.0, 41.0);
        let core = t.self_per_root(|s| s.name.starts_with("core."));
        assert_eq!(core, vec![1.5, 2.5]);
        assert!(t.self_per_root(|s| s.name == "cluster.event_loop").is_empty());
    }

    #[test]
    fn nested_opens_link_parents_and_close_in_order() {
        let mut t = tracer();
        let outer = t.open("op", 3, false);
        let inner = t.time("core.analysis", 3, true, || 7);
        assert_eq!(inner, 7);
        t.close(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 3);
        assert!(t.spans()[1].rss_mib.is_some());
        assert!(t.spans()[0].rss_mib.is_none());
        assert!(t.spans().iter().all(|s| s.end >= s.start));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.open("op", 0, true);
        t.record("core.compute", Some(id), 0, 0, 0.0, 1.0);
        t.close(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_export_links_parents() {
        let mut t = tracer();
        let root = t.record("op", None, 5, 0, 0.0, 0.002);
        t.record("core.compute", Some(root), 5, 1, 0.001, 0.002);
        let json = t.chrome_json("serve_churn");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"core.compute\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"request\":5"));
        assert!(json.trim_end().ends_with("]}"));
    }
}

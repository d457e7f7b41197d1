//! The discrete-event engine: a time-ordered queue with deterministic
//! tie-breaking, holding the known schedule in a sorted array and the
//! events the run creates in a binary heap.

use sc_telemetry::record::ExitStatus;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A job arrives in the queue. The payload is the index into the
    /// trace's job list. Requeues after an injected failure reuse this
    /// event with the same index.
    Submit(usize),
    /// A running job attempt reaches the end decided when it started;
    /// the event time is its end time. The attempt tag lets the driver
    /// drop finishes that went stale when an injected failure killed
    /// the attempt first — a job can be killed and requeued more than
    /// once, so a bare job index would be ambiguous.
    Finish {
        /// Index into the trace's job list, as in [`Event::Submit`].
        trace_idx: usize,
        /// Which attempt (1-based) scheduled this finish.
        attempt: u32,
        /// How the attempt ends.
        exit: ExitStatus,
    },
    /// A scheduler wake-up: Slurm's scheduling loop runs a short,
    /// configurable latency after each submission rather than inline
    /// with it.
    Tick,
    /// An injected failure strikes. The payload indexes the
    /// pre-computed failure schedule, which carries the cause, the
    /// struck node, and the repair time.
    Fault(usize),
    /// A failed node returns to service.
    NodeRepair(crate::resources::NodeId),
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue: a schedule known before the run, merged with the
/// events the run creates.
///
/// The schedule (submissions and injected faults) is numbered in the
/// order given and sorted once; only events pushed during the run go
/// through the binary heap. Both share one `(time, seq)` order, with
/// `seq` counting the schedule first and then every push, so ties in
/// time break by insertion order and runs are bit-reproducible. The
/// pops are exactly those of a heap that took the schedule, then each
/// push, one at a time.
#[derive(Debug)]
pub struct EventQueue {
    /// The schedule's unpopped entries, latest first, so the earliest
    /// is the last.
    schedule: Vec<Entry>,
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    /// A queue holding `schedule`, numbered in iteration order.
    ///
    /// # Panics
    ///
    /// Panics if a scheduled time is not finite.
    pub fn new(schedule: impl IntoIterator<Item = (f64, Event)>) -> Self {
        let mut schedule: Vec<Entry> = schedule
            .into_iter()
            .zip(0..)
            .map(|((time, event), seq)| {
                assert!(time.is_finite(), "event time must be finite");
                Entry { time, seq, event }
            })
            .collect();
        // `Entry` orders the earliest greatest; `(time, seq)` keys are
        // unique, so the unstable sort is as deterministic as a stable
        // one and needs no scratch buffer.
        schedule.sort_unstable();
        let seq = schedule.len() as u64;
        EventQueue { schedule, heap: BinaryHeap::new(), seq }
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn push(&mut self, time: f64, event: Event) {
        assert!(time.is_finite(), "event time must be finite");
        self.heap.push(Entry { time, seq: self.seq, event });
        self.seq += 1;
    }

    /// Removes and returns the earliest event, from the schedule or
    /// the heap.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        let scheduled_first = match (self.schedule.last(), self.heap.peek()) {
            (Some(s), Some(h)) => s > h,
            (s, _) => s.is_some(),
        };
        let e = if scheduled_first { self.schedule.pop() } else { self.heap.pop() };
        e.map(|e| (e.time, e.event))
    }

    /// Number of pending events, scheduled and pushed.
    pub fn len(&self) -> usize {
        self.schedule.len() + self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new([]);
        q.push(5.0, Event::Submit(1));
        q.push(1.0, Event::Submit(2));
        let finish = Event::Finish { trace_idx: 9, attempt: 1, exit: ExitStatus::Completed };
        q.push(3.0, finish);
        assert_eq!(q.pop(), Some((1.0, Event::Submit(2))));
        assert_eq!(q.pop(), Some((3.0, finish)));
        assert_eq!(q.pop(), Some((5.0, Event::Submit(1))));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new([]);
        q.push(2.0, Event::Submit(10));
        q.push(2.0, Event::Submit(11));
        q.push(2.0, Event::Fault(3));
        assert_eq!(q.pop().unwrap().1, Event::Submit(10));
        assert_eq!(q.pop().unwrap().1, Event::Submit(11));
        assert_eq!(q.pop().unwrap().1, Event::Fault(3));
    }

    #[test]
    fn len_tracks_pushes() {
        let mut q = EventQueue::new([]);
        assert_eq!(q.len(), 0);
        q.push(1.0, Event::Submit(0));
        q.push(2.0, Event::Submit(1));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn schedule_and_pushes_share_one_order() {
        // Equal times across a submission, a fault and pushed events:
        // the schedule's entries come first in `seq`, pushes after.
        let finish = Event::Finish { trace_idx: 0, attempt: 1, exit: ExitStatus::Completed };
        let mut q = EventQueue::new([
            (2.0, Event::Submit(0)),
            (1.0, Event::Fault(0)),
            (2.0, Event::Fault(1)),
            (2.0, Event::Submit(1)),
        ]);
        q.push(2.0, Event::Tick);
        assert_eq!(q.pop(), Some((1.0, Event::Fault(0))));
        q.push(2.0, finish);
        q.push(1.5, Event::Tick);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (1.5, Event::Tick),
                (2.0, Event::Submit(0)),
                (2.0, Event::Fault(1)),
                (2.0, Event::Submit(1)),
                (2.0, Event::Tick),
                (2.0, finish),
            ]
        );
    }

    #[test]
    fn schedule_pops_like_pushing_it_one_at_a_time() {
        // A seeded mix of scheduled and pushed events on a coarse time
        // grid, so ties are everywhere, with pops interleaved.
        let mut state = 7u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for _ in 0..200 {
            let schedule: Vec<(f64, Event)> = (0..next(40))
                .map(|i| {
                    let event = if next(2) == 0 {
                        Event::Submit(i as usize)
                    } else {
                        Event::Fault(i as usize)
                    };
                    (next(8) as f64, event)
                })
                .collect();
            let mut merged = EventQueue::new(schedule.iter().copied());
            let mut pushed = EventQueue::new([]);
            for &(time, event) in &schedule {
                pushed.push(time, event);
            }
            for _ in 0..next(60) {
                if next(3) == 0 {
                    assert_eq!(merged.pop(), pushed.pop());
                } else {
                    let time = next(8) as f64;
                    let event = if next(2) == 0 { Event::Tick } else { Event::Submit(99) };
                    merged.push(time, event);
                    pushed.push(time, event);
                }
                assert_eq!(merged.len(), pushed.len());
            }
            while let Some(e) = pushed.pop() {
                assert_eq!(merged.pop(), Some(e));
            }
            assert!(merged.is_empty());
        }
    }

    #[test]
    fn len_counts_schedule_and_heap() {
        let mut q = EventQueue::new([(1.0, Event::Submit(0)), (3.0, Event::Fault(0))]);
        assert_eq!(q.len(), 2);
        q.push(2.0, Event::Tick);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, Event::Submit(0))));
        assert_eq!(q.pop(), Some((2.0, Event::Tick)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!((q.len(), q.is_empty()), (0, true));
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn rejects_non_finite_scheduled_time() {
        let _ = EventQueue::new([(0.0, Event::Submit(0)), (f64::INFINITY, Event::Fault(0))]);
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new([]);
        q.push(f64::NAN, Event::Submit(0));
    }
}

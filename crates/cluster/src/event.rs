//! The discrete-event engine: a time-ordered queue with deterministic
//! tie-breaking.

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

/// A min-heap event queue. Ties in time are broken by insertion order,
/// making runs bit-reproducible.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
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

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        q.push(2.0, Event::Submit(10));
        q.push(2.0, Event::Submit(11));
        q.push(2.0, Event::Fault(3));
        assert_eq!(q.pop().unwrap().1, Event::Submit(10));
        assert_eq!(q.pop().unwrap().1, Event::Submit(11));
        assert_eq!(q.pop().unwrap().1, Event::Fault(3));
    }

    #[test]
    fn len_tracks_pushes() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(1.0, Event::Submit(0));
        q.push(2.0, Event::Submit(1));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, Event::Submit(0));
    }
}

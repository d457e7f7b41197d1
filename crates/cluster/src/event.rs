//! The discrete-event engine: a time-ordered queue with deterministic
//! tie-breaking. It merges three sources: the submissions, sorted once;
//! the injected faults, drawn on demand from a stream already in time
//! order; and a binary heap of the events the run creates.

use crate::failure::ScheduledFailure;
use sc_telemetry::record::ExitStatus;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events the queue holds: submissions and the events the run pushes.
/// Injected faults never enter it; they come from the fault stream.
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
    /// A failed node returns to service.
    NodeRepair(crate::resources::NodeId),
}

/// What [`EventQueue::pop`] returns: a queued event or the next
/// injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popped {
    /// A submission or an event pushed during the run.
    Event(Event),
    /// An injected failure strikes: its cause, the struck node, the
    /// victim pick and the repair time.
    Fault(ScheduledFailure),
}

/// A queued event. Faults stay out of it, so the heap moves 32-byte
/// entries.
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

/// `seq` of the first pushed event; submissions number from 0, below
/// it. At equal times a submission pops before the fault stream's head,
/// and the head before any pushed event.
const PUSHED_SEQ: u64 = 1 << 62;

/// The event queue: the submissions and the injected faults, merged
/// with the events the run creates.
///
/// The submissions are numbered in the order given and sorted once.
/// The faults come from a stream in time order, one at a time: the
/// queue draws the next fault only when the previous one pops. Only
/// events pushed during the run go through the binary heap. At equal
/// times the submissions pop first (in the order given), then the
/// faults (in stream order), then the pushed events (in push order).
/// The pops are exactly those of a heap that took the submissions,
/// then every fault, then each push, one at a time, so runs are
/// bit-reproducible.
#[derive(Debug)]
pub struct EventQueue<F: Iterator<Item = ScheduledFailure>> {
    /// The unpopped submissions, latest first, so the earliest is the
    /// last.
    submissions: Vec<Entry>,
    /// The next fault, drawn from `faults`; `None` once it has ended.
    fault: Option<ScheduledFailure>,
    faults: F,
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl<F: Iterator<Item = ScheduledFailure>> EventQueue<F> {
    /// A queue holding `submissions`, numbered in iteration order, and
    /// the faults of `faults`, which must come in time order. The queue
    /// treats the stream as ended at its first `None`.
    ///
    /// # Panics
    ///
    /// Panics if a submission's time, or the first fault's, is not
    /// finite.
    pub fn new(submissions: impl IntoIterator<Item = (f64, Event)>, mut faults: F) -> Self {
        let mut submissions: Vec<Entry> = submissions
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
        submissions.sort_unstable();
        let fault = Self::draw(&mut faults);
        EventQueue { submissions, fault, faults, heap: BinaryHeap::new(), seq: PUSHED_SEQ }
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

    /// Removes and returns the earliest event: a submission, the next
    /// fault or a pushed event.
    ///
    /// # Panics
    ///
    /// Panics if the fault stream yields a time that is not finite.
    pub fn pop(&mut self) -> Option<(f64, Popped)> {
        // `Entry` orders the earliest greatest, and `None` below any
        // entry.
        let queued = self.submissions.last().max(self.heap.peek()).map(|e| (e.time, e.seq));
        let fault_first = match (&self.fault, queued) {
            (Some(f), Some((time, seq))) => f.time < time || (f.time == time && seq >= PUSHED_SEQ),
            (fault, _) => fault.is_some(),
        };
        if fault_first {
            let next = Self::draw(&mut self.faults);
            let f = std::mem::replace(&mut self.fault, next)?;
            return Some((f.time, Popped::Fault(f)));
        }
        let e = if queued?.1 < PUSHED_SEQ { self.submissions.pop() } else { self.heap.pop() }?;
        Some((e.time, Popped::Event(e.event)))
    }

    /// Number of events the queue holds: the unpopped submissions, the
    /// next fault and the pushed events. Later faults are not drawn
    /// yet, so they are not counted.
    pub fn len(&self) -> usize {
        self.submissions.len() + usize::from(self.fault.is_some()) + self.heap.len()
    }

    /// Whether the queue is empty: nothing is pending and the fault
    /// stream has ended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stream's next fault.
    fn draw(faults: &mut F) -> Option<ScheduledFailure> {
        let f = faults.next()?;
        assert!(f.time.is_finite(), "event time must be finite");
        Some(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureCause;
    use crate::resources::NodeId;
    use std::cell::Cell;
    use std::iter;

    /// A fault at `time` on `node`.
    fn fault(time: f64, node: u32) -> ScheduledFailure {
        ScheduledFailure {
            time,
            cause: FailureCause::NodeHardware,
            node: NodeId(node),
            pick: 0,
            repair_secs: 0.0,
        }
    }

    fn no_faults() -> iter::Empty<ScheduledFailure> {
        iter::empty()
    }

    /// `event` popped at `time`.
    fn at(time: f64, event: Event) -> Option<(f64, Popped)> {
        Some((time, Popped::Event(event)))
    }

    /// `f` popped at its time.
    fn struck(f: ScheduledFailure) -> Option<(f64, Popped)> {
        Some((f.time, Popped::Fault(f)))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new([], no_faults());
        q.push(5.0, Event::Submit(1));
        q.push(1.0, Event::Submit(2));
        let finish = Event::Finish { trace_idx: 9, attempt: 1, exit: ExitStatus::Completed };
        q.push(3.0, finish);
        assert_eq!(q.pop(), at(1.0, Event::Submit(2)));
        assert_eq!(q.pop(), at(3.0, finish));
        assert_eq!(q.pop(), at(5.0, Event::Submit(1)));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new([], no_faults());
        q.push(2.0, Event::Submit(10));
        q.push(2.0, Event::Submit(11));
        q.push(2.0, Event::NodeRepair(NodeId(3)));
        assert_eq!(q.pop(), at(2.0, Event::Submit(10)));
        assert_eq!(q.pop(), at(2.0, Event::Submit(11)));
        assert_eq!(q.pop(), at(2.0, Event::NodeRepair(NodeId(3))));
    }

    #[test]
    fn len_tracks_pushes() {
        let mut q = EventQueue::new([], no_faults());
        assert_eq!(q.len(), 0);
        q.push(1.0, Event::Submit(0));
        q.push(2.0, Event::Submit(1));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn schedule_and_pushes_share_one_order() {
        // Equal times across submissions, faults and pushed events:
        // submissions pop first, then faults, then pushes.
        let finish = Event::Finish { trace_idx: 0, attempt: 1, exit: ExitStatus::Completed };
        let mut q = EventQueue::new(
            [(2.0, Event::Submit(0)), (2.0, Event::Submit(1))],
            [fault(1.0, 0), fault(2.0, 1), fault(2.0, 2)].into_iter(),
        );
        q.push(2.0, Event::Tick);
        assert_eq!(q.pop(), struck(fault(1.0, 0)));
        q.push(2.0, finish);
        q.push(1.5, Event::Tick);
        let order: Vec<_> = iter::from_fn(|| q.pop()).map(Some).collect();
        assert_eq!(
            order,
            [
                at(1.5, Event::Tick),
                at(2.0, Event::Submit(0)),
                at(2.0, Event::Submit(1)),
                struck(fault(2.0, 1)),
                struck(fault(2.0, 2)),
                at(2.0, Event::Tick),
                at(2.0, finish),
            ]
        );
    }

    /// The reference queue: every event pushed one at a time, popped by
    /// a linear scan for the earliest time, ties to the earliest push.
    #[derive(Default)]
    struct PushEverything(Vec<(f64, Popped)>);

    impl PushEverything {
        fn push(&mut self, time: f64, popped: Popped) {
            self.0.push((time, popped));
        }

        fn pop(&mut self) -> Option<(f64, Popped)> {
            let first = (0..self.0.len()).min_by(|&a, &b| self.0[a].0.total_cmp(&self.0[b].0))?;
            Some(self.0.remove(first))
        }
    }

    #[test]
    fn schedule_pops_like_pushing_it_one_at_a_time() {
        // Seeded submissions, a fault stream and run-time pushes on a
        // coarse time grid, so ties are everywhere, with pops
        // interleaved. The reference pushes the submissions, then every
        // fault, then each run-time push, one at a time.
        let mut state = 7u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for _ in 0..200 {
            let submissions: Vec<(f64, Event)> =
                (0..next(40)).map(|i| (next(8) as f64, Event::Submit(i as usize))).collect();
            let mut faults: Vec<ScheduledFailure> =
                (0..next(40)).map(|i| fault(next(8) as f64, i as u32)).collect();
            // A stream yields its faults in time order.
            faults.sort_by(|a, b| a.time.total_cmp(&b.time));
            let drawn = Cell::new(0);
            let stream = faults.iter().copied().inspect(|_| drawn.set(drawn.get() + 1));
            let mut merged = EventQueue::new(submissions.iter().copied(), stream);
            let mut reference = PushEverything::default();
            for &(time, event) in &submissions {
                reference.push(time, Popped::Event(event));
            }
            for &f in &faults {
                reference.push(f.time, Popped::Fault(f));
            }
            let mut faults_popped = 0;
            let mut pop = |merged: &mut EventQueue<_>, reference: &mut PushEverything| {
                let popped = merged.pop();
                assert_eq!(popped, reference.pop());
                faults_popped += usize::from(matches!(popped, Some((_, Popped::Fault(_)))));
                // The queue holds at most one drawn, unpopped fault.
                assert!(drawn.get() <= faults_popped + 1);
            };
            for _ in 0..next(60) {
                if next(3) == 0 {
                    pop(&mut merged, &mut reference);
                } else {
                    let time = next(8) as f64;
                    let event = match next(3) {
                        0 => Event::Tick,
                        1 => Event::Submit(99),
                        _ => Event::NodeRepair(NodeId(99)),
                    };
                    merged.push(time, event);
                    reference.push(time, Popped::Event(event));
                }
                assert_eq!(merged.is_empty(), reference.0.is_empty());
            }
            while !reference.0.is_empty() {
                pop(&mut merged, &mut reference);
            }
            assert!(merged.is_empty());
            assert_eq!(drawn.get(), faults.len());
        }
    }

    #[test]
    fn len_counts_schedule_and_heap() {
        // Submissions, pushed events and the one drawn fault count;
        // faults not drawn yet do not.
        let mut q =
            EventQueue::new([(1.0, Event::Submit(0))], [fault(3.0, 0), fault(4.0, 1)].into_iter());
        assert_eq!(q.len(), 2);
        q.push(2.0, Event::Tick);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), at(1.0, Event::Submit(0)));
        assert_eq!(q.pop(), at(2.0, Event::Tick));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), struck(fault(3.0, 0)));
        assert_eq!((q.len(), q.is_empty()), (1, false));
        q.pop();
        assert_eq!((q.len(), q.is_empty()), (0, true));
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn rejects_non_finite_scheduled_time() {
        let _ = EventQueue::new(
            [(0.0, Event::Submit(0)), (f64::INFINITY, Event::Submit(1))],
            no_faults(),
        );
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn rejects_non_finite_fault_time() {
        let mut q = EventQueue::new([], [fault(1.0, 0), fault(f64::NAN, 1)].into_iter());
        q.pop();
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new([], no_faults());
        q.push(f64::NAN, Event::Submit(0));
    }
}

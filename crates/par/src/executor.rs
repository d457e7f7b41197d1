//! A work-stealing request executor for long-running services.
//!
//! [`par_map`](crate::par_map) is a *batch* helper: it spawns scoped
//! workers, drains one input slice, and joins. A query
//! service needs the opposite shape — a resident pool that accepts
//! one-shot requests from many client threads over its whole lifetime.
//! [`Executor`] provides that:
//!
//! - Submitted tasks are distributed round-robin across per-worker
//!   deques; a worker drains its own deque LIFO (fresh tasks are
//!   cache-hot) and **steals FIFO from its siblings** when its own runs
//!   dry, so a burst landing on one deque spreads across the pool.
//! - Idle workers park on a condvar guarded by a pending-task count —
//!   a semaphore, not a timeout loop — so wakeups are prompt and an
//!   idle pool burns no CPU.
//! - Tasks are opaque `FnOnce` boxes; result delivery is the caller's
//!   business (the serving layer pairs each task with a channel).
//!
//! The executor never promises an execution *order* — services built on
//! it must make each task a pure function of its own inputs, which is
//! exactly the contract the memoization layer ([`crate::cache`])
//! enforces for query results.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// One submitted unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Shared pool state.
struct Inner {
    /// Per-worker deques. Owners pop from the back (LIFO), thieves
    /// steal from the front (FIFO), so a stolen task is the oldest —
    /// the one least likely to be cache-hot on its home worker.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Count of submitted-but-unclaimed tasks; the parking semaphore.
    pending: Mutex<usize>,
    /// Signals parked workers that `pending` grew or shutdown began.
    available: Condvar,
    /// Set once by [`Executor::drop`]; workers exit when the queues
    /// are drained.
    shutdown: AtomicBool,
    /// Round-robin cursor for task placement.
    next_queue: AtomicUsize,
}

impl Inner {
    /// Claims one task: own deque first (back), then siblings (front).
    /// Called only after winning a `pending` credit, so a task exists
    /// *somewhere*; a miss means its push is still landing and the
    /// caller should spin briefly.
    fn claim(&self, own: usize) -> Option<Task> {
        if let Some(task) = self.queues[own].lock().expect("queue poisoned").pop_back() {
            return Some(task);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (own + offset) % n;
            if let Some(task) = self.queues[victim].lock().expect("queue poisoned").pop_front() {
                return Some(task);
            }
        }
        None
    }

    /// The worker loop: wait for a credit, claim a task, run it.
    fn work(self: &Arc<Inner>, own: usize) {
        loop {
            {
                let mut pending = self.pending.lock().expect("pending lock poisoned");
                while *pending == 0 {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    pending = self.available.wait(pending).expect("pending lock poisoned");
                }
                *pending -= 1;
            }
            // The credit guarantees a task was pushed before the count
            // rose; another worker may race us to that *specific* task,
            // but credits == pushes, so one task per credit is always
            // reachable once its push lands.
            let task = loop {
                match self.claim(own) {
                    Some(task) => break task,
                    None => thread::yield_now(),
                }
            };
            task();
        }
    }
}

/// A resident pool of worker threads executing submitted one-shot
/// tasks; see the module docs for the scheduling discipline.
///
/// Dropping the executor shuts the pool down: workers finish every
/// already-submitted task, then exit and are joined.
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("workers", &self.workers.len()).finish_non_exhaustive()
    }
}

impl Executor {
    /// A pool of exactly `threads` workers (at least 1).
    pub fn new(threads: usize) -> Executor {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: Mutex::new(0),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_queue: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let inner = inner.clone();
                thread::Builder::new()
                    .name(format!("sc-serve-worker-{i}"))
                    .spawn(move || inner.work(i))
                    .expect("worker thread spawns")
            })
            .collect();
        Executor { inner, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits one task for asynchronous execution.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        let i = self.inner.next_queue.fetch_add(1, Ordering::Relaxed) % self.inner.queues.len();
        self.inner.queues[i].lock().expect("queue poisoned").push_back(Box::new(task));
        let mut pending = self.inner.pending.lock().expect("pending lock poisoned");
        *pending += 1;
        drop(pending);
        self.inner.available.notify_one();
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            // Setting the flag under the pending lock closes the race
            // with a worker between its shutdown check and cv.wait —
            // it holds the lock across that window, so it either sees
            // the flag or is woken by the notify below.
            let _pending = self.inner.pending.lock().expect("pending lock poisoned");
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        let current = thread::current().id();
        for worker in self.workers.drain(..) {
            // A task that owns the last reference to a service can end
            // up dropping the executor *from* a worker thread; joining
            // that thread would deadlock, so it is detached instead.
            if worker.thread().id() != current {
                worker.join().expect("worker thread exits cleanly");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_every_submitted_task() {
        let exec = Executor::new(4);
        let count = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for i in 0..1000u64 {
            let count = count.clone();
            let tx = tx.clone();
            exec.spawn(move || {
                count.fetch_add(i, Ordering::Relaxed);
                tx.send(()).expect("receiver alive");
            });
        }
        for _ in 0..1000 {
            rx.recv_timeout(Duration::from_secs(10)).expect("task completes");
        }
        assert_eq!(count.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn single_worker_pool_still_drains() {
        let exec = Executor::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..100u32 {
            let tx = tx.clone();
            exec.spawn(move || tx.send(i).expect("receiver alive"));
        }
        let mut seen: Vec<u32> = (0..100)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).expect("task completes"))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_bursts_are_stolen_by_idle_workers() {
        // One long task pins its home worker; the burst behind it must
        // complete anyway because siblings steal it.
        let exec = Executor::new(4);
        let (tx, rx) = mpsc::channel();
        let blocker = Arc::new(Mutex::new(()));
        let held = blocker.lock().expect("test lock");
        for i in 0..64u32 {
            let tx = tx.clone();
            if i == 0 {
                let blocker = blocker.clone();
                exec.spawn(move || {
                    let _wait = blocker.lock().expect("test lock");
                    tx.send(i).expect("receiver alive");
                });
            } else {
                exec.spawn(move || tx.send(i).expect("receiver alive"));
            }
        }
        // All short tasks finish while task 0 is still blocked.
        let mut done = Vec::new();
        for _ in 0..63 {
            done.push(rx.recv_timeout(Duration::from_secs(10)).expect("stolen task completes"));
        }
        assert!(!done.contains(&0));
        drop(held);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).expect("blocked task completes"), 0);
    }

    #[test]
    fn drop_finishes_submitted_tasks() {
        let count = Arc::new(AtomicU64::new(0));
        {
            let exec = Executor::new(2);
            for _ in 0..200 {
                let count = count.clone();
                exec.spawn(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(count.load(Ordering::Relaxed), 200, "drop drains the queues before joining");
    }
}

//! A work-stealing request executor for long-running services.
//!
//! [`par_map`](crate::par_map) is a *batch* helper: it spawns scoped
//! workers, drains one input slice, and joins. A query
//! service needs the opposite shape — a resident pool that accepts
//! one-shot requests from many client threads over its whole lifetime.
//! [`Executor`] provides that:
//!
//! - [`Executor::with_body`] starts the pool on an **owner thread** that
//!   runs a caller-supplied body once. The body builds whatever state
//!   every task reads, then drives the pool's workers through
//!   [`Workers::run`]. The workers are scoped threads of that call, so
//!   the task handler borrows the body's state directly: state built
//!   once serves every task on every worker. `with_body` returns once
//!   the workers have started, so that state is ready before the first
//!   task is submitted.
//! - Submitted tasks are distributed round-robin across per-worker
//!   deques; a worker drains its own deque LIFO (fresh tasks are
//!   cache-hot) and **steals FIFO from its siblings** when its own runs
//!   dry, so a burst landing on one deque spreads across the pool.
//! - Idle workers park on a condvar guarded by a pending-task count —
//!   a semaphore, not a timeout loop — so wakeups are prompt and an
//!   idle pool burns no CPU.
//! - A task is any `Send` value of the pool's task type; what it means
//!   is the handler's business (the serving layer pairs each request
//!   with a channel).
//!
//! The executor never promises an execution *order* — services built on
//! it must make each task a pure function of its own inputs, which is
//! exactly the contract the memoization layer ([`crate::cache`])
//! enforces for query results.

use std::collections::VecDeque;
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;

/// Shared pool state.
struct Inner<T> {
    /// Per-worker deques. Owners pop from the back (LIFO), thieves
    /// steal from the front (FIFO), so a stolen task is the oldest —
    /// the one least likely to be cache-hot on its home worker.
    queues: Vec<Mutex<VecDeque<T>>>,
    /// Count of submitted-but-unclaimed tasks; the parking semaphore.
    pending: Mutex<usize>,
    /// Signals parked workers that `pending` grew or shutdown began.
    available: Condvar,
    /// Set once by [`Executor::drop`]; workers exit when the queues
    /// are drained.
    shutdown: AtomicBool,
    /// Round-robin cursor for task placement.
    next_queue: AtomicUsize,
    /// The workers' thread ids, so an executor dropped by one of its
    /// own tasks knows not to wait for the thread it is running on.
    workers: Mutex<Vec<thread::ThreadId>>,
}

impl<T> Inner<T> {
    /// Claims one task: own deque first (back), then siblings (front).
    /// Called only after winning a `pending` credit, so a task exists
    /// *somewhere*; a miss means its push is still landing and the
    /// caller should spin briefly.
    fn claim(&self, own: usize) -> Option<T> {
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

    /// The worker loop: wait for a credit, claim a task, hand it to
    /// `handle`.
    fn work(&self, own: usize, handle: &impl Fn(T)) {
        self.workers.lock().expect("worker list poisoned").push(thread::current().id());
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
            handle(task);
        }
    }
}

/// A resident pool of worker threads serving submitted tasks of type
/// `T`; see the module docs for the owner thread and the scheduling
/// discipline.
///
/// Dropping the executor shuts the pool down: the workers finish every
/// already-submitted task and exit, the body returns, and the owner
/// thread is joined. A task that drops the executor (it held the last
/// handle to a service) does not wait for its own thread: the pool
/// winds down the same way once that task returns.
pub struct Executor<T> {
    inner: Arc<Inner<T>>,
    /// `None` only while [`Executor::drop`] runs.
    owner: Option<thread::JoinHandle<()>>,
}

/// The pool's workers, handed once to the body of
/// [`Executor::with_body`].
pub struct Workers<T> {
    inner: Arc<Inner<T>>,
    started: mpsc::SyncSender<()>,
}

impl<T> std::fmt::Debug for Executor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.inner.queues.len())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Executor<T> {
    /// A pool of exactly `threads` workers (at least 1), driven by
    /// `body` on an owner thread.
    ///
    /// `body` runs once. It builds the state its tasks share and passes
    /// a handler to [`Workers::run`], which serves every submitted task
    /// until the executor is dropped. Returns once the workers have
    /// started.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `body` that comes before it runs its
    /// workers, and panics if `body` returns without running them:
    /// such a pool could never serve a task.
    pub fn with_body<B>(threads: usize, body: B) -> Executor<T>
    where
        B: FnOnce(Workers<T>) + Send + 'static,
    {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: Mutex::new(0),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_queue: AtomicUsize::new(0),
            workers: Mutex::new(Vec::with_capacity(threads)),
        });
        let (started, on_start) = mpsc::sync_channel(1);
        let workers = Workers { inner: Arc::clone(&inner), started };
        let owner = thread::Builder::new()
            .name("sc-par-pool-owner".to_string())
            .spawn(move || body(workers))
            .expect("owner thread spawns");
        if on_start.recv().is_err() {
            // The body dropped its workers without running them.
            match owner.join() {
                Err(payload) => panic::resume_unwind(payload),
                Ok(()) => panic!("executor body returned without running its workers"),
            }
        }
        Executor { inner, owner: Some(owner) }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.inner.queues.len()
    }

    /// Submits one task for asynchronous execution.
    pub fn spawn(&self, task: T) {
        let i = self.inner.next_queue.fetch_add(1, Ordering::Relaxed) % self.inner.queues.len();
        self.inner.queues[i].lock().expect("queue poisoned").push_back(task);
        let mut pending = self.inner.pending.lock().expect("pending lock poisoned");
        *pending += 1;
        drop(pending);
        self.inner.available.notify_one();
    }
}

impl<T: Send> Workers<T> {
    /// Runs the pool's workers, each handing every task it claims to
    /// `handle`, until the executor is dropped and every submitted task
    /// has been handled.
    ///
    /// The workers are scoped threads of this call, so `handle` may
    /// borrow anything the body owns. A panic in `handle` ends its
    /// worker (the others steal its queue) and is re-raised here once
    /// the pool shuts down, unwinding the body.
    pub fn run(self, handle: impl Fn(T) + Sync) {
        let Workers { inner, started } = self;
        let (inner, handle) = (&*inner, &handle);
        thread::scope(|scope| {
            for own in 0..inner.queues.len() {
                thread::Builder::new()
                    .name(format!("sc-par-pool-worker-{own}"))
                    .spawn_scoped(scope, move || inner.work(own, handle))
                    .expect("worker thread spawns");
            }
            // `with_body` holds the receiver until this signal lands.
            let _ = started.send(());
        });
    }
}

impl<T> Drop for Executor<T> {
    fn drop(&mut self) {
        {
            // Setting the flag under the pending lock closes the race
            // with a worker between its shutdown check and cv.wait —
            // it holds the lock across that window, so it either sees
            // the flag or is woken by the notify below. Both locks
            // guard values that every update leaves whole, so a
            // poisoned guard is recovered rather than panicking here.
            let _pending = self.inner.pending.lock().unwrap_or_else(PoisonError::into_inner);
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        let Some(owner) = self.owner.take() else { return };
        let current = thread::current().id();
        if self.inner.workers.lock().unwrap_or_else(PoisonError::into_inner).contains(&current) {
            // Dropped by one of the pool's own tasks: the owner waits
            // for this very thread, so joining it would deadlock. The
            // owner is detached and exits once this task returns.
            return;
        }
        // A task's panic has already been reported, by the panic hook
        // and to its submitter (its reply channel closed), so the
        // owner's re-raised copy is not raised again from `drop`.
        let _ = owner.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    type Job = Box<dyn FnOnce() + Send>;

    /// A pool whose tasks are boxed closures.
    fn closure_pool(threads: usize) -> Executor<Job> {
        Executor::with_body(threads, |workers| workers.run(|job: Job| job()))
    }

    #[test]
    fn runs_every_submitted_task() {
        let exec = closure_pool(4);
        let count = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for i in 0..1000u64 {
            let count = count.clone();
            let tx = tx.clone();
            exec.spawn(Box::new(move || {
                count.fetch_add(i, Ordering::Relaxed);
                tx.send(()).expect("receiver alive");
            }));
        }
        for _ in 0..1000 {
            rx.recv_timeout(Duration::from_secs(10)).expect("task completes");
        }
        assert_eq!(count.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn single_worker_pool_still_drains() {
        let exec = closure_pool(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..100u32 {
            let tx = tx.clone();
            exec.spawn(Box::new(move || tx.send(i).expect("receiver alive")));
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
        let exec = closure_pool(4);
        let (tx, rx) = mpsc::channel();
        let blocker = Arc::new(Mutex::new(()));
        let held = blocker.lock().expect("test lock");
        for i in 0..64u32 {
            let tx = tx.clone();
            if i == 0 {
                let blocker = blocker.clone();
                exec.spawn(Box::new(move || {
                    let _wait = blocker.lock().expect("test lock");
                    tx.send(i).expect("receiver alive");
                }));
            } else {
                exec.spawn(Box::new(move || tx.send(i).expect("receiver alive")));
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
            let exec = closure_pool(2);
            for _ in 0..200 {
                let count = count.clone();
                exec.spawn(Box::new(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                }));
            }
        }
        assert_eq!(count.load(Ordering::Relaxed), 200, "drop drains the queues before joining");
    }

    #[test]
    fn a_body_panic_before_its_workers_run_reaches_the_constructor() {
        let caught = panic::catch_unwind(|| {
            Executor::<Job>::with_body(2, |_workers| panic!("no state to build"))
        });
        let payload = caught.expect_err("the body's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"no state to build"));
    }

    #[test]
    fn the_body_runs_once_however_many_tasks_its_pool_serves() {
        // Each task reports the value the body built; a second body run
        // would build a different one.
        let bodies = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel::<u64>();
        let exec = {
            let bodies = Arc::clone(&bodies);
            Executor::with_body(4, move |workers| {
                let built = vec![bodies.fetch_add(1, Ordering::SeqCst) + 1; 64];
                workers.run(|reply: mpsc::Sender<u64>| {
                    reply.send(built.iter().sum()).expect("receiver alive");
                });
            })
        };
        for _ in 0..1000 {
            exec.spawn(tx.clone());
        }
        let read: Vec<u64> = (0..1000)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).expect("task completes"))
            .collect();
        drop(exec);
        assert_eq!(bodies.load(Ordering::SeqCst), 1, "one body per pool");
        assert!(read.iter().all(|&sum| sum == 64), "every task read the one built value");
    }

    #[test]
    fn dropping_the_executor_from_its_own_task_winds_the_pool_down() {
        let state = Arc::new("the body's state");
        let weak = Arc::downgrade(&state);
        let exec = Arc::new(Executor::with_body(2, move |workers| {
            let state = state;
            workers.run(|job: Job| {
                let _reads = &state;
                job();
            });
        }));
        let (go, wait_for_go) = mpsc::channel::<()>();
        let (dropped, on_dropped) = mpsc::channel::<()>();
        let last = Arc::clone(&exec);
        exec.spawn(Box::new(move || {
            wait_for_go.recv().expect("test alive");
            // The test dropped its handle first, so this is the last
            // one, as when a request holds the last handle to a service.
            drop(last);
            dropped.send(()).expect("test alive");
        }));
        drop(exec);
        go.send(()).expect("task alive");
        on_dropped.recv_timeout(Duration::from_secs(10)).expect("a drop from a task returns");
        // The workers exit, `run` returns and the body drops its state.
        let deadline = Instant::now() + Duration::from_secs(10);
        while weak.upgrade().is_some() {
            assert!(Instant::now() < deadline, "the pool's threads did not exit");
            thread::sleep(Duration::from_millis(1));
        }
    }
}

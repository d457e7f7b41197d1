//! A FIFO request executor for long-running services.
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
//! - Submitted tasks wait in **one FIFO queue** under one lock, and the
//!   workers start them in submission order. Every task arrives from
//!   outside the pool, so there is no per-worker locality to keep.
//! - Idle workers park on a condvar over that queue — not a timeout
//!   loop — so wakeups are prompt and an idle pool burns no CPU.
//! - A task is any `Send` value of the pool's task type; what it means
//!   is the handler's business (the serving layer pairs each request
//!   with a channel).
//!
//! Tasks start in order but, on more than one worker, may finish in any
//! order — services built on the pool must make each task a pure
//! function of its own inputs, which is exactly the contract the
//! memoization layer ([`crate::cache`]) enforces for query results.

use std::collections::VecDeque;
use std::panic;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Everything the pool's one lock guards.
struct Queue<T> {
    /// Submitted tasks not yet started, oldest first.
    tasks: VecDeque<T>,
    /// Set once by [`Executor::drop`]; workers exit when `tasks` is
    /// drained.
    shutdown: bool,
    /// The workers' thread ids, so an executor dropped by one of its
    /// own tasks knows not to wait for the thread it is running on.
    workers: Vec<thread::ThreadId>,
}

/// Shared pool state.
struct Inner<T> {
    queue: Mutex<Queue<T>>,
    /// Signals parked workers that a task arrived or shutdown began.
    available: Condvar,
    /// Number of worker threads.
    threads: usize,
}

impl<T> Inner<T> {
    /// Locks the queue. Every update under the lock is one push, pop or
    /// store, so a guard poisoned by a panicking holder still guards a
    /// whole queue and is recovered rather than raised.
    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The worker loop: take the oldest task and hand it to `handle`,
    /// parking while the queue is empty; return once it is empty after
    /// shutdown.
    fn work(&self, handle: &impl Fn(T)) {
        self.lock().workers.push(thread::current().id());
        loop {
            let mut queue = self
                .available
                .wait_while(self.lock(), |queue| queue.tasks.is_empty() && !queue.shutdown)
                .unwrap_or_else(PoisonError::into_inner);
            let Some(task) = queue.tasks.pop_front() else { return };
            drop(queue);
            handle(task);
        }
    }
}

/// A resident pool of worker threads serving submitted tasks of type
/// `T` in submission order; see the module docs for the owner thread.
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
        f.debug_struct("Executor").field("workers", &self.inner.threads).finish_non_exhaustive()
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
    /// such a pool could never serve a task. Panics if the operating
    /// system cannot start the owner thread.
    #[allow(
        clippy::expect_used,
        reason = "a pool without its owner thread can serve nothing, and the caller has no \
                  fallback to run instead"
    )]
    pub fn with_body<B>(threads: usize, body: B) -> Executor<T>
    where
        B: FnOnce(Workers<T>) + Send + 'static,
    {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
                workers: Vec::with_capacity(threads),
            }),
            available: Condvar::new(),
            threads,
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
        self.inner.threads
    }

    /// Submits one task, to start after every task submitted before it.
    pub fn spawn(&self, task: T) {
        self.inner.lock().tasks.push_back(task);
        self.inner.available.notify_one();
    }
}

impl<T: Send> Workers<T> {
    /// Runs the pool's workers, each handing every task it takes to
    /// `handle`, until the executor is dropped and every submitted task
    /// has been handled.
    ///
    /// The workers are scoped threads of this call, so `handle` may
    /// borrow anything the body owns. A panic in `handle` ends its
    /// worker (the others keep serving the queue) and is re-raised here
    /// once the pool shuts down, unwinding the body.
    ///
    /// # Panics
    ///
    /// Panics if the operating system cannot start a worker thread.
    #[allow(
        clippy::expect_used,
        reason = "a pool short of its workers breaks the thread budget its caller chose, and \
                  the body has no fallback to run instead"
    )]
    pub fn run(self, handle: impl Fn(T) + Sync) {
        let Workers { inner, started } = self;
        let (inner, handle) = (&*inner, &handle);
        thread::scope(|scope| {
            for own in 0..inner.threads {
                thread::Builder::new()
                    .name(format!("sc-par-pool-worker-{own}"))
                    .spawn_scoped(scope, move || inner.work(handle))
                    .expect("worker thread spawns");
            }
            // `with_body` holds the receiver until this signal lands.
            let _ = started.send(());
        });
    }
}

impl<T> Drop for Executor<T> {
    fn drop(&mut self) {
        // Setting the flag under the queue's lock closes the race with a
        // worker between its emptiness check and its wait: it holds the
        // lock across that window, so it either sees the flag or is
        // woken by the notify below.
        let on_worker = {
            let mut queue = self.inner.lock();
            queue.shutdown = true;
            queue.workers.contains(&thread::current().id())
        };
        self.inner.available.notify_all();
        let Some(owner) = self.owner.take() else { return };
        if on_worker {
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
    use std::sync::atomic::{AtomicU64, Ordering};
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
    fn tasks_start_in_submission_order() {
        let exec = closure_pool(1);
        let (started, on_started) = mpsc::channel();
        let (release, wait_for_release) = mpsc::channel::<()>();
        exec.spawn(Box::new(move || {
            started.send(()).expect("test alive");
            wait_for_release.recv().expect("test alive");
        }));
        // The one worker is held by the first task, so the next ten
        // queue up behind it.
        on_started.recv_timeout(Duration::from_secs(10)).expect("first task starts");
        let (tx, rx) = mpsc::channel();
        for i in 0..10u32 {
            let tx = tx.clone();
            exec.spawn(Box::new(move || tx.send(i).expect("receiver alive")));
        }
        release.send(()).expect("first task alive");
        let order: Vec<u32> = (0..10)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).expect("task completes"))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>(), "oldest task first");
    }

    #[test]
    fn a_blocked_task_does_not_hold_up_the_tasks_behind_it() {
        // One long task pins a worker; the burst behind it must
        // complete anyway on the other workers.
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
            done.push(rx.recv_timeout(Duration::from_secs(10)).expect("short task completes"));
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
        assert_eq!(count.load(Ordering::Relaxed), 200, "drop drains the queue before joining");
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

//! The telemetry batch leaves no scratch behind on the calling thread.
//!
//! At a thread budget of 1, `par_map` synthesizes the telemetry batch
//! on the calling thread, so that thread's sine tape fills to the
//! largest detailed job's wave ticks. Once the run's output is dropped,
//! the live heap must be back where it was before the run. This
//! binary's allocator counts the live bytes of every thread, so it
//! holds this one test.

use sc_cluster::{SimConfig, Simulation};
use sc_workload::{Trace, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::AtomicIsize;
use std::sync::atomic::Ordering::Relaxed;

/// Bytes allocated minus bytes freed, over the whole process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's. The counter is a
// statistic that no allocation depends on, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        }
        new
    }
}

#[test]
fn a_one_thread_run_returns_the_heap_to_its_pre_run_level() {
    sc_par::set_max_threads(1);
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, 42);
    let run = |detailed_series_jobs| {
        Simulation::new(SimConfig { detailed_series_jobs, ..SimConfig::default() }).run(&trace)
    };
    // A run without the detailed subset sets up whatever a first run
    // keeps for the process's life, and never touches the tape.
    drop(run(0));

    let before = LIVE.load(Relaxed);
    let out = run(30);
    assert!(!out.detailed.is_empty(), "the detailed subset streamed through the tape");
    drop(out);
    let held = LIVE.load(Relaxed) - before;
    assert_eq!(held, 0, "the run left {held} bytes live on the heap");
}

//! Measurement helpers: percentiles with their sample-count rule,
//! live-heap and resident-memory high-water marks, and the metric
//! records the benchmark prints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{
    AtomicBool, AtomicIsize,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::{Mutex, PoisonError};

/// One printed measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated `p`-th percentile (0..=100) of `samples`;
/// `None` when there are none.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether `n` samples support the `p`-th percentile: at least
/// [`MIN_BEYOND`] of them must lie above it.
pub fn supports(n: usize, p: f64) -> bool {
    let at_or_below = (n as f64 * p / 100.0).ceil() as usize;
    n.saturating_sub(at_or_below) >= MIN_BEYOND
}

/// The percentile a run of `n` samples reports as its tail: the 99th
/// when at least [`MIN_BEYOND`] samples lie beyond it, otherwise the
/// median. A percentile chosen from the sample count itself would move
/// with the operation count, so a faster program, running more
/// operations in the same time, would report a higher percentile.
pub fn tail_percentile(n: usize) -> f64 {
    if supports(n, 99.0) {
        99.0
    } else {
        50.0
    }
}

/// The tail latency a run reports, at [`tail_percentile`].
pub fn tail(samples: &[f64]) -> Option<f64> {
    percentile(samples, tail_percentile(samples.len()))
}

/// The process's resident-memory high-water mark (`VmHWM`), with a
/// reset through `clear_refs` so that one call's peak can be read on
/// its own.
#[derive(Debug)]
pub struct HighWater {
    status: PathBuf,
    clear_refs: PathBuf,
    /// Cleared after the first failed reset: every later reading is
    /// then the lifetime peak, and the run says so.
    resettable: bool,
}

impl HighWater {
    pub fn new() -> HighWater {
        HighWater::at("/proc/self/status", "/proc/self/clear_refs")
    }

    pub fn at(status: impl AsRef<Path>, clear_refs: impl AsRef<Path>) -> HighWater {
        HighWater {
            status: status.as_ref().to_path_buf(),
            clear_refs: clear_refs.as_ref().to_path_buf(),
            resettable: true,
        }
    }

    /// Current high-water mark in KiB (0 when unreadable).
    pub fn read_kib(&self) -> u64 {
        std::fs::read_to_string(&self.status)
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }

    pub fn read_mib(&self) -> f64 {
        self.read_kib() as f64 / 1024.0
    }

    /// Resets the mark to the current resident size. Returns `false`,
    /// and stops trying, when `clear_refs` cannot be written.
    pub fn reset(&mut self) -> bool {
        if self.resettable && std::fs::write(&self.clear_refs, "5").is_err() {
            self.resettable = false;
        }
        self.resettable
    }
}

/// The benchmark's global allocator: the system allocator, which also
/// counts heap growth while a [`heap_window`] is open. Outside a window
/// its only extra work is a relaxed load of a flag that nothing writes,
/// so timed operations run at the system allocator's speed. Live bytes
/// are counted rather than resident size because what the allocator
/// keeps after frees varies from run to run of the same code.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since the window opened.
static NET: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let now = NET.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        if now > PEAK.load(Relaxed) {
            PEAK.fetch_max(now, Relaxed);
        }
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Relaxed) {
        NET.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's. The counters are
// statistics that no allocation depends on, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// What a [`heap_window`] saw, MiB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapUse {
    /// The high-water of the heap the window added.
    pub peak_mib: f64,
    /// What the window added and still holds at its end.
    pub held_mib: f64,
}

/// Runs `f` with heap counting on; returns its result and the heap it
/// used. Blocks allocated before the window and freed inside it count
/// against the window, so `f` should build the data it works on.
/// Counting costs atomic updates on every allocation, so a window is
/// never timed. Windows take turns.
pub fn heap_window<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    NET.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, SeqCst);
    let out = f();
    COUNTING.store(false, SeqCst);
    let mib = |bytes: isize| bytes.max(0) as f64 / (1024.0 * 1024.0);
    (out, HeapUse { peak_mib: mib(PEAK.load(Relaxed)), held_mib: mib(NET.load(Relaxed)) })
}

/// Seeded generator for benchmark inputs (SplitMix64).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`); the modulo bias is below
    /// 2^-58 for the small pools drawn from here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(5, 50.0));
    }

    #[test]
    fn tail_is_p99_when_supported_and_the_median_otherwise() {
        assert_eq!(tail_percentile(999), 50.0);
        assert_eq!(tail_percentile(1000), 99.0);
        let few = [3.0, 9.0, 1.0];
        assert_eq!(tail(&few), Some(3.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = tail(&many).expect("non-empty");
        assert!((p99 - percentile(&many, 99.0).expect("non-empty")).abs() < 1e-9);
        assert!(p99 < 1000.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn high_water_falls_back_to_the_lifetime_peak_when_reset_fails() {
        let mut hw = HighWater::at("/proc/self/status", "/nonexistent-dir/clear_refs");
        assert!(!hw.reset());
        assert!(!hw.reset(), "a failed reset is not retried");
        assert!(hw.read_kib() > 0, "the peak is still readable");
    }

    #[test]
    fn unreadable_status_reads_zero() {
        let hw = HighWater::at("/nonexistent-dir/status", "/nonexistent-dir/clear_refs");
        assert_eq!(hw.read_kib(), 0);
    }

    #[test]
    fn a_heap_window_counts_what_it_allocates() {
        let ((), used) = heap_window(|| {
            let block = vec![1u8; 64 << 20];
            drop(block);
        });
        assert!(used.peak_mib >= 64.0, "{used:?}");
        assert!(used.held_mib < 64.0, "{used:?}");
        let (kept, used) = heap_window(|| vec![1u8; 1 << 20]);
        assert!(used.held_mib >= 1.0, "{used:?}");
        assert_eq!(kept.len(), 1 << 20);
    }

    #[test]
    fn splitmix_is_seeded_and_bounded() {
        let a: Vec<usize> = {
            let mut r = SplitMix64::new(7);
            (0..100).map(|_| r.below(30)).collect()
        };
        let mut r = SplitMix64::new(7);
        let b: Vec<usize> = (0..100).map(|_| r.below(30)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 30));
        let mut other = SplitMix64::new(8);
        assert_ne!(a, (0..100).map(|_| other.below(30)).collect::<Vec<_>>());
    }
}

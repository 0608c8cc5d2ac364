//! A counting `#[global_allocator]`: a wrapper over [`System`] that, while
//! switched on, keeps the live and peak heap bytes and the number and
//! volume of allocations. It is off in every timed window (one relaxed
//! load per call is all it then costs) and on in the memory probes and
//! the traced pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The counters, separate from the allocator so that the arithmetic can
/// be tested on a private instance while the process-wide one serves
/// every test thread at once.
///
/// Atomics audit: every access is `Relaxed`. The counters are statistics
/// that publish no other data, and they are read only after the measured
/// single-threaded section has returned to the reader's own thread.
pub struct Counters {
    live: AtomicI64,
    peak: AtomicI64,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

/// One reading of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reading {
    /// Bytes allocated and not yet freed since the last reset. Negative
    /// when memory allocated before the reset was freed after it.
    pub live: i64,
    /// The highest value `live` reached since the last reset.
    pub peak: i64,
    /// Allocations (a `realloc` counts as one) since the last reset.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Counters {
    pub const fn new() -> Self {
        Counters {
            live: AtomicI64::new(0),
            peak: AtomicI64::new(0),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    pub fn on_alloc(&self, size: usize) {
        let live = self.live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        self.peak.fetch_max(live, Ordering::Relaxed);
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }

    pub fn on_free(&self, size: usize) {
        self.live.fetch_sub(size as i64, Ordering::Relaxed);
    }

    pub fn reset(&self) {
        self.live.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }

    pub fn read(&self) -> Reading {
        Reading {
            live: self.live.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

static COUNTERS: Counters = Counters::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The allocator `main.rs` installs.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns its result
// unchanged; the counting beside the call touches only atomics and
// never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            COUNTERS.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            COUNTERS.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if ENABLED.load(Ordering::Relaxed) {
            COUNTERS.on_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout` and that `new_size` is a valid non-zero
        // size for its alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            COUNTERS.on_free(layout.size());
            COUNTERS.on_alloc(new_size);
        }
        p
    }
}

/// Runs `work` with counting on, from zeroed counters, and returns its
/// result with the reading taken while that result is still alive: what
/// `work` returns is counted as live, what it dropped is not.
pub fn counted<R>(work: impl FnOnce() -> R) -> (R, Reading) {
    COUNTERS.reset();
    ENABLED.store(true, Ordering::Relaxed);
    let out = work();
    ENABLED.store(false, Ordering::Relaxed);
    (out, COUNTERS.read())
}

/// The running totals, for span boundaries inside a [`counted`] section.
pub fn reading() -> Reading {
    COUNTERS.read()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_follows_allocations_and_frees_while_peak_only_rises() {
        let c = Counters::new();
        c.on_alloc(100);
        c.on_alloc(50);
        assert_eq!(c.read(), Reading { live: 150, peak: 150, allocs: 2, bytes: 150 });
        c.on_free(100);
        c.on_alloc(20);
        assert_eq!(c.read(), Reading { live: 70, peak: 150, allocs: 3, bytes: 170 });
        c.on_alloc(200);
        assert_eq!(c.read().peak, 270);
    }

    #[test]
    fn freeing_memory_from_before_the_reset_reads_negative_and_leaves_peak_alone() {
        let c = Counters::new();
        c.on_alloc(64);
        c.reset();
        c.on_free(64);
        assert_eq!(c.read(), Reading { live: -64, peak: 0, allocs: 0, bytes: 0 });
    }

    #[test]
    fn the_installed_allocator_counts_what_the_section_keeps() {
        // Other test threads may allocate while counting is on, so only
        // lower bounds hold here; the exact arithmetic is pinned above.
        let (kept, r) = counted(|| {
            let dropped = vec![0u8; 1 << 20];
            std::hint::black_box(&dropped);
            drop(dropped);
            vec![1u8; 1 << 16]
        });
        assert_eq!(kept.len(), 1 << 16);
        assert!(r.allocs >= 2, "{r:?}");
        assert!(r.peak >= 1 << 20, "{r:?}");
        assert!(r.bytes >= (1 << 20) + (1 << 16), "{r:?}");
    }
}

//! A counting global allocator: live bytes, their peak since the last
//! reset, and the number of allocation calls.
//!
//! The counters are process-wide atomics (the sharded cell allocates from
//! worker threads). They publish no other data, hence `Relaxed`. The
//! simulator's steady-state loop does not allocate, so there the three
//! atomic updates per call sit on construction and report paths only; the
//! prototype's ~10^6 allocations per cell pay them for a few milliseconds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    CALLS.fetch_add(1, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters around the call, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A measurement window opened by [`Window::open`]: the live bytes at that
/// moment are the baseline, so what was allocated before (the trace, the
/// prepared cell) is excluded from the peak.
pub struct Window {
    base_live: usize,
    base_calls: u64,
}

impl Window {
    pub fn open() -> Window {
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        Window {
            base_live: live,
            base_calls: CALLS.load(Relaxed),
        }
    }

    /// Peak live heap above the baseline since the window opened, bytes.
    pub fn peak_bytes(&self) -> usize {
        PEAK.load(Relaxed).saturating_sub(self.base_live)
    }

    /// Allocation calls (alloc, alloc_zeroed, realloc) since it opened.
    pub fn calls(&self) -> u64 {
        CALLS.load(Relaxed) - self.base_calls
    }
}

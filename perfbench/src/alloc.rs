//! Allocation accounting for the traced pass.
//!
//! [`CountingAlloc`] forwards every call to the system allocator and, while
//! [armed](arm), counts allocations (a `realloc` counts as one) and their
//! requested bytes. Only the traced binary installs it as the
//! `#[global_allocator]`; the timed binary never does, so its counters stay
//! at zero and its timings carry no accounting cost. Counts are attributed by
//! reading [`counts`] before and after a call boundary on a single thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator of the traced pass.
pub struct CountingAlloc;

fn record(bytes: usize) {
    // Relaxed: the counters are statistics that publish no other data.
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards the caller's pointer, layout and size to
// `System` unchanged and returns its result unchanged; the only extra work is
// bumping atomic counters, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`, for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts (`true`) or stops (`false`) counting. Counting is off at start-up.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Allocations and requested bytes counted so far (both zero when the
/// counting allocator is not installed).
pub fn counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

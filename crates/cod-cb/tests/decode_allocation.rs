//! A received payload decides how much the decoder reserves only up to what
//! the payload can hold: a hostile attribute count must not turn into a
//! large allocation. The test installs an allocator that records the largest
//! request made on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use cod_cb::codec::Reader;
use cod_cb::CbError;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct LargestRequest;

fn record(size: usize) {
    if ARMED.with(Cell::get) {
        // Relaxed: a statistic read by the same thread after the call.
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards the caller's pointer, layout and size to
// `System` unchanged and returns its result unchanged; the only extra work is
// a thread-local read and an atomic update, which neither allocate nor touch
// the memory.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
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

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// The largest single allocation `f` requests on this thread.
fn largest_request<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (result, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn a_hostile_attribute_count_reserves_only_what_the_payload_can_hold() {
    // 65,535 attributes claimed in an 8-byte payload.
    let payload = [0xff, 0xff, 0, 1, 2, 0, 0, 0];
    let (decoded, largest) = largest_request(|| Reader::new(&payload).attribute_values());
    assert!(matches!(decoded, Err(CbError::Codec(_))));
    // Reserving for the claimed count would request 65,535 entries (megabytes).
    assert!(largest < 1024, "decoding requested {largest} bytes at once");

    // The control: the measurement does see a reservation of that size.
    let (_, reserved) =
        largest_request(|| std::hint::black_box(Vec::<(u16, u64)>::with_capacity(65_535)));
    assert!(reserved >= 65_535 * 16, "the allocator must see large requests");
}

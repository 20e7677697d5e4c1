//! Per-thread heap accounting: a counting wrapper around the system
//! allocator.
//!
//! Peak RSS of a two-worker sweep depends on which cells happen to run at
//! the same moment and on how much freed memory the allocator's per-thread
//! arenas keep, so it differs between runs of the same seed. The bytes a
//! cell has live on its own worker thread do not: one cell runs on one
//! thread, and its allocations are a function of its inputs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting live bytes per thread.
pub struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(delta: isize) {
    // `try_with` fails only while the thread is being torn down; the
    // counts of a finished thread are no longer read.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) };
        grow(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size as isize - layout.size() as isize);
        }
        new
    }
}

/// Starts a new peak window on this thread; pass the returned mark to
/// [`peak_since`].
pub fn mark() -> isize {
    LIVE.with(|live| {
        let now = live.get();
        PEAK.with(|peak| peak.set(now));
        now
    })
}

/// Most bytes this thread has had live since `mark`, beyond what it had
/// live at the mark.
pub fn peak_since(mark: isize) -> u64 {
    PEAK.with(|peak| (peak.get() - mark).max(0) as u64)
}

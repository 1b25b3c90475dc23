//! A std-only counting `#[global_allocator]` for the bounded-decode
//! tests: it tracks the live heap bytes each thread has allocated, and
//! [`peak_during`] reports how far above its starting point that count
//! rose while a closure ran.
//!
//! Counting happens at request time — a `Vec::with_capacity` counts in
//! full even if the OS never backs its pages — so a decoder that
//! reserves from an unverified header shows up here, whatever the
//! host's overcommit policy would have done with it.
//!
//! Shared by the decode-bound tests of `eie-compress`, `eie-core` and
//! `eie-serve` (included with `#[path]`; each test binary installs its
//! own allocator instance).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator: [`System`] underneath.
pub struct Counting;

thread_local! {
    // Const-initialized and drop-free, so touching them never allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.get() + bytes as isize;
    LIVE.set(live);
    if live > PEAK.get() {
        PEAK.set(live);
    }
}

fn shrink(bytes: usize) {
    LIVE.set(LIVE.get() - bytes as isize);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates thread-local counters around the call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one is released: a moving
        // realloc holds both for a moment.
        grow(new_size);
        shrink(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the peak live heap bytes this
/// thread reached above its starting point while `f` ran (the result,
/// still alive at the end, counts).
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.get();
    PEAK.set(start);
    let out = f();
    (out, (PEAK.get() - start).max(0) as usize)
}

/// Asserts the bound `peak ≤ per_byte · input_len + slack` for one
/// decode of `input_len` bytes, naming the case on failure.
pub fn assert_bounded(what: &str, input_len: usize, peak: usize, per_byte: usize, slack: usize) {
    let bound = per_byte * input_len + slack;
    assert!(
        peak <= bound,
        "{what}: decoding {input_len} bytes peaked at {peak} live heap bytes, \
         over the bound {per_byte}·len + {slack} = {bound}"
    );
}

//! A counting global allocator: forwards to the system allocator and
//! counts each allocation (`alloc`, `alloc_zeroed` and `realloc`)
//! against the layer whose span is innermost on the calling thread
//! (see [`crate::probe`]).

use std::alloc::{GlobalAlloc, Layout, System};

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around it
// touches only const-initialised thread-local cells and never
// allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        crate::probe::count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        crate::probe::count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        crate::probe::count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

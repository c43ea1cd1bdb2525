//! A counting global allocator: per thread, the allocations made and the
//! heap bytes held live. A binary that declares
//!
//! ```text
//! #[global_allocator]
//! static GLOBAL: testkit::alloc::Counting = testkit::alloc::Counting;
//! ```
//!
//! can read both around any piece of work with [`heap`] or [`measure`].
//! The counts are per thread, so tests running side by side do not see each
//! other's allocations; without the declaration they read zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards every call to [`System`] and counts it for the calling thread.
#[derive(Debug)]
pub struct Counting;

thread_local! {
    // Const-initialised and without a destructor: reading them never
    // allocates, which an allocator must not do while allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts `allocations` that grew the live heap by `bytes` (negative when
/// freeing), on a thread that is not tearing its slots down.
fn account(allocations: u64, bytes: isize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes as i64));
}

// SAFETY: every method forwards to `System` with the caller's own pointer
// and layout, unchanged; the counting beside it touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            account(1, layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            account(1, layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        account(0, -(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` match and `new_size` is valid.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            account(1, new_size as isize - layout.size() as isize);
        }
        new_ptr
    }
}

/// The calling thread's allocations so far (reallocations included) and
/// the heap bytes it holds live.
#[must_use]
pub fn heap() -> (u64, i64) {
    (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get))
}

/// What `f` returns, how many allocations (reallocations included) the
/// calling thread made while it ran, and how many more heap bytes the
/// thread holds after it than before.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let before = heap();
    let out = f();
    let after = heap();
    (out, after.0 - before.0, after.1 - before.1)
}

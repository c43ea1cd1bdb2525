//! A counting global allocator: the program's live and peak heap bytes.
//!
//! `VmHWM` answers "how much memory did the process touch", but on this
//! kind of host it moves by 8-16 % between identical runs (allocator
//! arenas, thread timing). The bytes the program *asked for* repeat
//! exactly on a single-threaded deterministic run and closely on a
//! threaded one, so `peak_heap_mb` is the bounded end-to-end memory
//! metric; `VmHWM` is still reported per layer as `proc.peak_rss_mb`.
//!
//! Threads publish to the shared counters only once they have moved
//! [`FLUSH`] bytes, so two workers allocating at full speed do not bounce
//! one cache line between cores on every `malloc`. The peak is therefore
//! exact to within `FLUSH` bytes per live thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

pub struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Bytes a thread accumulates before it publishes them.
const FLUSH: isize = 4 * 1024;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, which an allocator must not do while allocating.
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    let publish = PENDING
        .try_with(|pending| {
            let total = pending.get() + delta;
            if total.abs() >= FLUSH {
                pending.set(0);
                Some(total)
            } else {
                pending.set(total);
                None
            }
        })
        // The slot is gone while a thread tears down: publish directly.
        .unwrap_or(Some(delta));
    if let Some(bytes) = publish {
        // Relaxed: these are statistics and publish no other data.
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own pointer
// and layout, unchanged, so `System`'s guarantees carry over; the counting
// beside it touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            account(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            account(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` match and `new_size` is valid.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        new_ptr
    }
}

/// Publishes the calling thread's unpublished bytes. A thread that is
/// about to end calls this, or its last few kilobytes stay uncounted.
pub fn flush_thread() {
    let _ = PENDING.try_with(|pending| {
        let bytes = pending.replace(0);
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    });
}

/// Peak of the live heap since the process started (or since the last
/// [`take_peak_heap_mb`]), in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Returns the peak and restarts it from the current live heap, so a
/// caller can read one peak per interval.
pub fn take_peak_heap_mb() -> f64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.swap(live, Ordering::Relaxed).max(live) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_allocation() {
        let before = peak_heap_mb();
        let block = vec![1u8; 32 * 1024 * 1024];
        std::hint::black_box(&block);
        let with_block = peak_heap_mb();
        drop(block);
        assert!(with_block >= 32.0, "{with_block}");
        assert!(with_block >= before);
        // The peak never comes down by itself...
        assert!(peak_heap_mb() >= with_block);
        // ...only when taken, after which it restarts from the live heap.
        assert!(take_peak_heap_mb() >= with_block);
        assert!(peak_heap_mb() < with_block);
    }
}

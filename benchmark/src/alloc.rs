//! Counting `#[global_allocator]`: exact allocation counts and bytes.
//!
//! Allocation counts are the only cost signal on this machine that
//! repeats exactly, so they are always on. To keep them out of the
//! timings, each thread counts into its own cache-line-sized slot with
//! plain relaxed loads and stores (single writer per slot — no locked
//! instruction on the allocation path). A reader sums the slots; the
//! sum is exact whenever the other threads are idle, which is the case
//! at every point the benchmark reads it (between closed-loop
//! operations, after `Ticket::wait` returned).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Threads beyond this many share the last slot (atomic adds there).
const SLOTS: usize = 1024;

#[repr(align(64))]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
}

static TABLE: [Slot; SLOTS] = [const {
    Slot {
        calls: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: touching it from
    // inside the allocator neither allocates nor registers anything.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The allocator installed by `main.rs`.
pub struct Counting;

fn record(size: usize) {
    let index = MY_SLOT
        .try_with(|mine| {
            let mut index = mine.get();
            if index == usize::MAX {
                index = NEXT_SLOT.fetch_add(1, Relaxed).min(SLOTS - 1);
                mine.set(index);
            }
            index
        })
        .unwrap_or(SLOTS - 1);
    let slot = &TABLE[index];
    if index == SLOTS - 1 {
        slot.calls.fetch_add(1, Relaxed);
        slot.bytes.fetch_add(size as u64, Relaxed);
    } else {
        slot.calls.store(slot.calls.load(Relaxed) + 1, Relaxed);
        slot.bytes
            .store(slot.bytes.load(Relaxed) + size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `record` only touches
// statics and a destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocation calls, bytes requested)` since process start, summed
/// over all threads. A `realloc` counts as one call of its new size.
pub fn totals() -> (u64, u64) {
    // Only the slots handed out so far: reading all 64 KiB of the table
    // between two timed operations would evict the caches under test.
    let used = NEXT_SLOT.load(Relaxed).min(SLOTS - 1) + 1;
    TABLE[..used].iter().fold((0, 0), |(calls, bytes), slot| {
        (
            calls + slot.calls.load(Relaxed),
            bytes + slot.bytes.load(Relaxed),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_and_joined_threads_allocations() {
        let before = totals();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        std::thread::spawn(|| {
            let w: Vec<u8> = Vec::with_capacity(8192);
            std::hint::black_box(&w);
        })
        .join()
        .expect("thread");
        let after = totals();
        assert!(after.0 >= before.0 + 2);
        assert!(after.1 >= before.1 + 4096 + 8192);
    }
}

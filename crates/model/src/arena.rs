//! Per-thread reuse of a run's large buffers.
//!
//! A run allocates its engine columns and message plane at start and frees
//! them at the end. For a multi-megabyte run, glibc then hands the freed
//! heap back to the OS, and the next run on the thread page-faults the same
//! working set in again. A [`BufferSlot`] keeps one buffer per role alive
//! between runs instead, under three rules that bound what it retains:
//!
//! * a request below 128 KiB bypasses the slot, so a small run between two
//!   large ones neither takes nor evicts what the first one gave back;
//! * a large request for a different element type drops the held buffer
//!   before it allocates, so a slot never holds two buffers;
//! * a run takes its buffers when it starts and gives them back only when
//!   it ends, so a run nested inside another gets fresh buffers and the
//!   slot keeps what the last large run to end gave back.
//!
//! A taken buffer is always empty; the caller initialises it exactly as it
//! would a fresh allocation, so reuse cannot change a run's result. A run
//! that panics drops its buffers while unwinding, leaving the slot empty.

use std::any::Any;
use std::cell::RefCell;

/// Requests smaller than this many bytes bypass the slot: glibc's default
/// mmap threshold, below which an allocation comes from the heap and is
/// cheap to fault in.
const FLOOR_BYTES: usize = 128 << 10;

/// One reusable buffer of any `'static` element type, meant to live in a
/// `thread_local!`. The `RefCell` is borrowed only inside [`take`](Self::take)
/// and [`give`](Self::give), never across caller code.
#[derive(Default)]
pub struct BufferSlot(RefCell<Option<Box<dyn Any>>>);

impl BufferSlot {
    /// An empty slot.
    pub const fn new() -> Self {
        BufferSlot(RefCell::new(None))
    }

    /// An empty `Vec` with room for at least `len` elements: the held
    /// buffer if it holds `T`s and is large enough, else a fresh one.
    pub fn take<T: 'static>(&self, len: usize) -> Vec<T> {
        if bytes::<T>(len) < FLOOR_BYTES {
            return Vec::with_capacity(len);
        }
        // `ok()` and `filter` drop a held buffer of another type, or one
        // too small, before the fresh allocation below.
        self.0
            .take()
            .and_then(|held| held.downcast::<Vec<T>>().ok())
            .map(|held| *held)
            .filter(|held| held.capacity() >= len)
            .unwrap_or_else(|| Vec::with_capacity(len))
    }

    /// Keep `buf`, emptied, for the next [`take`](Self::take), replacing
    /// whatever the slot holds. A buffer below the floor is dropped.
    pub fn give<T: 'static>(&self, mut buf: Vec<T>) {
        if bytes::<T>(buf.capacity()) < FLOOR_BYTES {
            return;
        }
        buf.clear();
        drop(self.0.replace(Some(Box::new(buf))));
    }
}

impl BufferSlot {
    /// [`take`](Self::take) for a buffer kept as separate parts, one per
    /// chunk of a run, that together hold `len` elements: the held parts,
    /// each empty but keeping its capacity, when they hold `T`s and `len`
    /// reaches the floor; else none. The caller sizes the outer `Vec`.
    pub fn take_parts<T: 'static>(&self, len: usize) -> Vec<Vec<T>> {
        if bytes::<T>(len) < FLOOR_BYTES {
            return Vec::new();
        }
        self.0
            .take()
            .and_then(|held| held.downcast::<Vec<Vec<T>>>().ok())
            .map(|held| *held)
            .unwrap_or_default()
    }

    /// [`give`](Self::give) for parts: kept, each emptied, when their
    /// capacities together reach the floor.
    pub fn give_parts<T: 'static>(&self, mut parts: Vec<Vec<T>>) {
        let total = parts.iter().map(Vec::capacity).sum();
        if bytes::<T>(total) < FLOOR_BYTES {
            return;
        }
        parts.iter_mut().for_each(Vec::clear);
        drop(self.0.replace(Some(Box::new(parts))));
    }
}

/// The size of `len` elements of `T`, saturating.
fn bytes<T>(len: usize) -> usize {
    len.saturating_mul(std::mem::size_of::<T>())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: usize = FLOOR_BYTES / 8;

    #[test]
    fn large_buffers_come_back_empty_and_reused() {
        let slot = BufferSlot::new();
        let mut a: Vec<u64> = slot.take(2 * BIG);
        a.resize(2 * BIG, 7);
        let ptr = a.as_ptr();
        slot.give(a);
        let b: Vec<u64> = slot.take(BIG);
        assert!(b.is_empty());
        assert_eq!(b.as_ptr(), ptr, "a smaller request reuses the held buffer");
        slot.give(b);
        let c: Vec<u64> = slot.take(4 * BIG);
        assert!(c.capacity() >= 4 * BIG, "a too-small buffer is replaced");
        assert!(slot.0.borrow().is_none());
    }

    #[test]
    fn small_requests_bypass_the_slot() {
        let slot = BufferSlot::new();
        let held = Vec::<u64>::with_capacity(BIG);
        let ptr = held.as_ptr();
        slot.give(held);
        let small: Vec<u64> = slot.take(16);
        assert_ne!(
            small.as_ptr(),
            ptr,
            "a small request never takes the held buffer"
        );
        slot.give(small);
        let big: Vec<u64> = slot.take(BIG);
        assert_eq!(big.as_ptr(), ptr, "a small give never evicts");
    }

    #[test]
    fn parts_come_back_empty_and_reused_above_the_floor() {
        let slot = BufferSlot::new();
        let parts: Vec<Vec<u64>> = vec![vec![1; BIG / 2], vec![2; BIG / 2]];
        let ptrs: Vec<*const u64> = parts.iter().map(|p| p.as_ptr()).collect();
        slot.give_parts(parts);
        assert!(
            slot.take_parts::<u64>(16).is_empty(),
            "a small run bypasses"
        );
        let back: Vec<Vec<u64>> = slot.take_parts(BIG);
        assert!(back.iter().all(Vec::is_empty));
        assert_eq!(back.iter().map(|p| p.as_ptr()).collect::<Vec<_>>(), ptrs);
        slot.give_parts(vec![vec![0u64; 16]]);
        assert!(slot.0.borrow().is_none(), "small parts are not kept");
    }

    #[test]
    fn another_element_type_evicts() {
        let slot = BufferSlot::new();
        slot.give(Vec::<u64>::with_capacity(BIG));
        let other: Vec<(u32, u32)> = slot.take(BIG);
        assert!(other.capacity() >= BIG);
        assert!(
            slot.0.borrow().is_none(),
            "the mismatch dropped the held buffer"
        );
    }
}

//! Bounded lock-free single-producer/single-consumer rings — one per
//! directed `(src, dst)` edge of the pipelined runtime's node mesh.
//!
//! The pipelined scheduler connects its node threads with an `L × L`
//! mesh of these rings: exactly one node thread pushes to a ring
//! and exactly one pops from it, so the only synchronization is one
//! release store per side. Capacity bounds memory while a fast producer
//! runs ahead of a slow consumer; a full ring makes `push` fail so the
//! caller can drain its own inbound edges instead of blocking (the
//! deadlock-freedom discipline in `pipeline.rs`).
//!
//! Under the `loom-check` feature the atomics and cells come from `loom`
//! so the publish/consume ordering can be model-checked
//! (`tests/loom_model.rs`); the production build uses `std` primitives
//! with identical code.

use std::mem::MaybeUninit;
use std::sync::Arc;

#[cfg(feature = "loom-check")]
mod sync {
    pub(super) use loom::cell::UnsafeCell;
    pub(super) use loom::sync::atomic::{AtomicUsize, Ordering};
}

#[cfg(not(feature = "loom-check"))]
mod sync {
    pub(super) use std::sync::atomic::{AtomicUsize, Ordering};

    /// `std` stand-in exposing loom's `with`/`with_mut` cell API so the
    /// ring body is identical under both builds.
    #[derive(Debug)]
    pub(super) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        pub(super) fn new(v: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(v))
        }

        pub(super) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}

use sync::{AtomicUsize, Ordering, UnsafeCell};

/// Pad the two cursors onto separate cache lines so producer stores never
/// invalidate the consumer's line (and vice versa).
#[repr(align(64))]
struct CachePadded<T>(T);

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Capacity mask (`capacity` is a power of two).
    mask: usize,
    capacity: usize,
    /// Consumer cursor: next slot to pop. Monotonic, wraps via `mask`.
    head: CachePadded<AtomicUsize>,
    /// Producer cursor: next slot to fill.
    tail: CachePadded<AtomicUsize>,
}

// The ring hands each `T` from exactly one thread to exactly one other;
// slots are published with release stores and read after acquire loads.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut i = head;
        while i != tail {
            self.buf[i & self.mask].with_mut(|p| unsafe { (*p).assume_init_drop() });
            i = i.wrapping_add(1);
        }
    }
}

/// Create a bounded SPSC ring holding at least `capacity` elements
/// (rounded up to a power of two, minimum 2).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(2).next_power_of_two();
    let buf = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        buf,
        mask: capacity - 1,
        capacity,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

/// The single sending side of one edge. Not clonable — one producer per
/// ring is what makes the lock-free publication safe.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> Producer<T> {
    /// Publish `value`, or hand it back if the ring is full. Never
    /// blocks: the caller decides how to wait (the pipeline drains its
    /// own inbound edges before retrying).
    pub fn push(&mut self, value: T) -> std::result::Result<(), T> {
        let tail = self.ring.tail.0.load(Ordering::Relaxed);
        let head = self.ring.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.ring.capacity {
            return Err(value);
        }
        self.ring.buf[tail & self.ring.mask].with_mut(|p| unsafe { (*p).write(value) });
        self.ring
            .tail
            .0
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }
}

/// The single receiving side of one edge.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> Consumer<T> {
    /// Take the oldest published element, if any.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.ring.head.0.load(Ordering::Relaxed);
        let tail = self.ring.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let value =
            self.ring.buf[head & self.ring.mask].with_mut(|p| unsafe { (*p).assume_init_read() });
        self.ring
            .head
            .0
            .store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// True when nothing is currently published.
    pub fn is_empty(&self) -> bool {
        self.ring.head.0.load(Ordering::Relaxed) == self.ring.tail.0.load(Ordering::Acquire)
    }
}

#[cfg(all(test, not(feature = "loom-check")))]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut p, mut c) = ring::<u32>(4);
        for i in 0..4 {
            p.push(i).unwrap();
        }
        assert_eq!(p.push(99), Err(99), "full ring rejects");
        for i in 0..4 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut p, mut c) = ring::<usize>(2);
        for i in 0..1000 {
            p.push(i).unwrap();
            assert_eq!(c.pop(), Some(i));
        }
        assert!(c.is_empty());
    }

    #[test]
    fn drops_unconsumed_elements() {
        let item = Arc::new(());
        let (mut p, c) = ring::<Arc<()>>(8);
        for _ in 0..5 {
            p.push(Arc::clone(&item)).unwrap();
        }
        drop((p, c));
        assert_eq!(Arc::strong_count(&item), 1, "ring drop released slots");
    }

    #[test]
    fn cross_thread_handoff_preserves_order() {
        let (mut p, mut c) = ring::<u64>(8);
        let n = 10_000u64;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..n {
                    let mut v = i;
                    loop {
                        match p.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
            let mut expect = 0u64;
            while expect < n {
                if let Some(v) = c.pop() {
                    assert_eq!(v, expect);
                    expect += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
    }
}

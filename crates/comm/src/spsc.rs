//! Cache-line-padded lock-free single-producer/single-consumer ring.
//!
//! [`crate::ThreadComm`] keeps one of these per ordered rank pair, so every
//! payload moves rank→rank without ever touching a mutex: the producer owns `tail`, the consumer owns `head`, and the two
//! indices live on separate cache lines ([`#[repr(align(64))]`] padding) so
//! a push never invalidates the consumer's line and vice versa — the false
//! sharing that would otherwise re-serialize the "lock-free" path.
//!
//! The SPSC discipline is enforced at compile time: [`ring`] returns a
//! [`Producer`]/[`Consumer`] pair, neither is `Clone`, and both `push` and
//! `pop` take `&mut self`. That makes the unsafe interior (a slot array of
//! `UnsafeCell<MaybeUninit<T>>`) sound: at most one thread writes any slot,
//! at most one thread reads it, and the acquire/release handoff on
//! `tail`/`head` orders the slot contents between them.
//!
//! This module is the only place in `kaisa-comm` allowed to use `unsafe`;
//! the crate root denies it everywhere else.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads and aligns a value to a 64-byte cache line so two adjacent values
/// never share a line (the classic false-sharing killer for SPSC indices).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

struct Shared<T> {
    /// Slot storage; length is a power of two so `index & mask` wraps.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will pop. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will push. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the producer/consumer split guarantees each slot is written by at
// most one thread and read by at most one thread, with the release store of
// `tail` (push) / `head` (pop) publishing the slot contents to the other
// side's acquire load. `T: Send` is required because values cross threads.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: the only `&Shared` access paths are the one `Producer` and the one
// `Consumer` (neither is `Clone`, and `push`/`pop` take `&mut self`), so no
// slot is ever touched by two threads at once; the atomic `head`/`tail`
// indices are the only state both sides read, and the acquire/release
// handoff on them orders every slot access. `T: Send` suffices because a
// value is moved, never shared, between the two threads.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Drop whatever is still queued. `&mut self` means both endpoints
        // are gone, so plain loads are exact.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            // SAFETY: slots in [head, tail) were initialized by a push and
            // never popped; we drop each exactly once.
            #[allow(unsafe_code)]
            unsafe {
                (*self.buf[i & self.mask].get()).assume_init_drop()
            };
        }
    }
}

/// The write end of an SPSC ring; see [`ring`]. Not `Clone` — single
/// producer by construction.
#[derive(Debug)]
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Cached copy of the consumer's head, refreshed only when the ring
    /// looks full — most pushes never read the shared head at all.
    head_cache: usize,
}

/// The read end of an SPSC ring; see [`ring`]. Not `Clone` — single
/// consumer by construction.
#[derive(Debug)]
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("capacity", &(self.mask + 1)).finish()
    }
}

/// Create a lock-free SPSC ring holding at most `capacity` values
/// (rounded up to a power of two, minimum 2). Returns the producer and
/// consumer endpoints; each may move to a different thread.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let shared = Arc::new(Shared {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (Producer { shared: Arc::clone(&shared), head_cache: 0 }, Consumer { shared })
}

impl<T: Send> Producer<T> {
    /// Slots the ring can hold.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Push `v`, or give it back if the ring is full. Never blocks and
    /// never takes a lock: one relaxed load, at most one acquire load, one
    /// slot write, one release store.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        let shared = &*self.shared;
        let tail = shared.tail.0.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.head_cache) > shared.mask {
            self.head_cache = shared.head.0.load(Ordering::Acquire);
            if tail.wrapping_sub(self.head_cache) > shared.mask {
                return Err(v);
            }
        }
        // SAFETY: `tail - head <= mask` means slot `tail & mask` is not
        // live: the consumer has popped (or never reached) it, and only this
        // producer writes slots. The release store below publishes the write.
        #[allow(unsafe_code)]
        unsafe {
            (*shared.buf[tail & shared.mask].get()).write(v)
        };
        shared.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }
}

impl<T: Send> Consumer<T> {
    /// Pop the oldest value, or `None` when the ring is empty. Never blocks
    /// and never takes a lock.
    pub fn pop(&mut self) -> Option<T> {
        let shared = &*self.shared;
        let head = shared.head.0.load(Ordering::Relaxed);
        if head == shared.tail.0.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: `head < tail` under the acquire load, so slot
        // `head & mask` was initialized by the producer's push and its write
        // is visible; advancing `head` afterwards hands the slot back.
        #[allow(unsafe_code)]
        let v = unsafe { (*shared.buf[head & shared.mask].get()).assume_init_read() };
        shared.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }

    /// Whether a pop would currently return `None`. A `false` answer is
    /// immediately actionable (values are only ever *added* by the other
    /// side); a `true` answer can race with an in-flight push.
    pub fn is_empty(&self) -> bool {
        let shared = &*self.shared;
        shared.head.0.load(Ordering::Relaxed) == shared.tail.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_with_wraparound() {
        let (mut tx, mut rx) = ring::<u64>(4);
        for round in 0..10u64 {
            for i in 0..4 {
                tx.push(round * 4 + i).unwrap();
            }
            assert!(tx.push(99).is_err(), "ring must report full");
            for i in 0..4 {
                assert_eq!(rx.pop(), Some(round * 4 + i));
            }
            assert_eq!(rx.pop(), None);
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = ring::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn drops_queued_values_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (mut tx, mut rx) = ring::<Counted>(8);
            for _ in 0..5 {
                tx.push(Counted).unwrap();
            }
            drop(rx.pop()); // one dropped by the consumer
            drop(rx.pop()); // two
        } // three left in the ring, dropped with it
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn two_thread_stream_is_lossless_and_ordered() {
        let (mut tx, mut rx) = ring::<u32>(16);
        const N: u32 = 100_000;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match tx.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                // Yield, not spin: on a single-core runner a
                                // pure spin burns the whole timeslice while
                                // the peer is descheduled.
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
            s.spawn(move || {
                let mut next = 0u32;
                while next < N {
                    match rx.pop() {
                        Some(v) => {
                            assert_eq!(v, next);
                            next += 1;
                        }
                        None => std::thread::yield_now(),
                    }
                }
                assert!(rx.pop().is_none());
            });
        });
    }

    #[test]
    fn heap_payloads_transfer_intact() {
        let (mut tx, mut rx) = ring::<Vec<f32>>(4);
        tx.push(vec![1.0, 2.0, 3.0]).unwrap();
        tx.push(Vec::new()).unwrap();
        assert_eq!(rx.pop(), Some(vec![1.0, 2.0, 3.0]));
        assert_eq!(rx.pop(), Some(Vec::new()));
    }
}

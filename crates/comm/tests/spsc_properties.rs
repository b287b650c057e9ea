//! Property-based tests on the lock-free SPSC ring itself: wrap-around
//! indexing, full/empty boundary behavior, and lossless ordered transfer
//! under randomized producer/consumer interleavings.

use std::collections::VecDeque;

use kaisa_comm::spsc::ring;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_deque_model_through_wraparound(
        capacity in 0usize..33,
        seed in any::<u64>(),
        ops in 16usize..512,
    ) {
        // Single-threaded model check: the ring must behave exactly like a
        // bounded VecDeque — push fails iff full, pop is None iff empty,
        // values come out FIFO — across enough operations to wrap the
        // indices several times.
        let (mut tx, mut rx) = ring::<u64>(capacity);
        let cap = tx.capacity();
        prop_assert_eq!(cap, capacity.max(2).next_power_of_two());
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut state = seed | 1;
        let mut next_value = 0u64;
        for _ in 0..ops {
            // xorshift: cheap deterministic op schedule from the seed.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 2 == 0 {
                match tx.push(next_value) {
                    Ok(()) => {
                        prop_assert!(model.len() < cap, "push succeeded on a full ring");
                        model.push_back(next_value);
                        next_value += 1;
                    }
                    Err(back) => {
                        prop_assert_eq!(back, next_value, "rejected push must return the value");
                        prop_assert_eq!(model.len(), cap, "push failed on a non-full ring");
                    }
                }
            } else {
                prop_assert_eq!(rx.pop(), model.pop_front());
            }
            prop_assert_eq!(rx.is_empty(), model.is_empty());
        }
        // Drain what's left: still FIFO, then empty forever.
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(rx.pop(), Some(expected));
        }
        prop_assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_empty_boundaries_are_exact(capacity in 0usize..17, rounds in 1usize..8) {
        // Fill to the brim, overflow must bounce, drain to the floor,
        // underflow must be None — repeated so the boundary lands on
        // different wrapped index positions each round.
        let (mut tx, mut rx) = ring::<usize>(capacity);
        let cap = tx.capacity();
        for round in 0..rounds {
            for i in 0..cap {
                prop_assert!(tx.push(round * cap + i).is_ok(), "ring full early at {i}/{cap}");
            }
            prop_assert!(tx.push(usize::MAX).is_err(), "ring must reject past capacity");
            prop_assert!(!rx.is_empty());
            for i in 0..cap {
                prop_assert_eq!(rx.pop(), Some(round * cap + i));
            }
            prop_assert_eq!(rx.pop(), None);
            prop_assert!(rx.is_empty());
        }
    }

    #[test]
    fn two_threads_lossless_under_random_yield_schedules(
        capacity in 0usize..9,
        n in 1u32..2048,
        seed in any::<u64>(),
    ) {
        // Producer and consumer each follow an independent seed-derived
        // yield schedule, randomizing which side runs ahead and where the
        // full/empty boundaries are hit. Every value must arrive exactly
        // once, in order, whatever the interleaving.
        let (mut tx, mut rx) = ring::<u32>(capacity);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut state = seed | 1;
                for i in 0..n {
                    let mut v = i;
                    loop {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        if state % 4 == 0 {
                            std::thread::yield_now();
                        }
                        match tx.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = 0u32;
            while next < n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 4 == 0 {
                    std::thread::yield_now();
                }
                match rx.pop() {
                    Some(v) => {
                        assert_eq!(v, next, "values must arrive in FIFO order");
                        next += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            assert!(rx.pop().is_none(), "no extra values may appear");
        });
    }

}

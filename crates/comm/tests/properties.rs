//! Property-based tests on the collectives: for arbitrary world sizes,
//! payloads, and group partitions, the ring engine must match the
//! sequential specification.

use kaisa_comm::{CommTag, Communicator, ReduceOp, ShardSpec, ThreadComm};
use kaisa_tensor::Rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn allreduce_sum_matches_sequential(
        world in 1usize..9,
        len in 1usize..64,
        seed in any::<u64>(),
        avg in any::<bool>(),
    ) {
        // Each rank contributes a deterministic pseudo-random buffer; every
        // rank must receive the exact rank-ordered sequential sum, or for
        // `Avg` that sum times `1/world`.
        let contributions: Vec<Vec<f32>> = (0..world)
            .map(|r| {
                let mut rng = Rng::seed_from_u64(seed ^ (r as u64) << 8);
                (0..len).map(|_| rng.uniform(-10.0, 10.0)).collect()
            })
            .collect();
        let mut expected = vec![0.0f32; len];
        for c in &contributions {
            for (e, v) in expected.iter_mut().zip(c) {
                *e += *v;
            }
        }
        let op = if avg { ReduceOp::Avg } else { ReduceOp::Sum };
        if avg {
            let inv = 1.0 / world as f32;
            for e in expected.iter_mut() {
                *e *= inv;
            }
        }
        let outputs = ThreadComm::run(world, |comm| {
            let mut buf = contributions[comm.rank()].clone();
            comm.allreduce(&mut buf, op);
            buf
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for out in outputs {
            prop_assert_eq!(bits(&out), bits(&expected), "allreduce must be rank-order deterministic");
        }
    }

    #[test]
    fn allreduce_max_matches_sequential(world in 1usize..7, len in 1usize..32, seed in any::<u64>()) {
        let contributions: Vec<Vec<f32>> = (0..world)
            .map(|r| {
                let mut rng = Rng::seed_from_u64(seed ^ (r as u64) << 8);
                (0..len).map(|_| rng.uniform(-5.0, 5.0)).collect()
            })
            .collect();
        let expected: Vec<f32> = (0..len)
            .map(|i| contributions.iter().map(|c| c[i]).fold(f32::MIN, f32::max))
            .collect();
        let outputs = ThreadComm::run(world, |comm| {
            let mut buf = contributions[comm.rank()].clone();
            comm.allreduce(&mut buf, ReduceOp::Max);
            buf
        });
        for out in outputs {
            prop_assert_eq!(&out, &expected);
        }
    }

    #[test]
    fn broadcast_from_any_root(world in 1usize..8, root_sel in any::<u64>(), len in 1usize..32) {
        let root = (root_sel % world as u64) as usize;
        let payload: Vec<f32> = (0..len).map(|i| i as f32 + root as f32 * 100.0).collect();
        let p = payload.clone();
        let outputs = ThreadComm::run(world, move |comm| {
            let mut buf = if comm.rank() == root { p.clone() } else { vec![0.0; len] };
            comm.broadcast(&mut buf, root);
            buf
        });
        for out in outputs {
            prop_assert_eq!(&out, &payload);
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order(world in 1usize..8, len in 1usize..16) {
        let outputs = ThreadComm::run(world, |comm| {
            let send: Vec<f32> = (0..len).map(|i| (comm.rank() * 1000 + i) as f32).collect();
            comm.allgather(&send)
        });
        let expected: Vec<f32> = (0..world)
            .flat_map(|r| (0..len).map(move |i| (r * 1000 + i) as f32))
            .collect();
        for out in outputs {
            prop_assert_eq!(&out, &expected);
        }
    }

    #[test]
    fn reduce_scatter_pad_and_trim_matches_sequential(
        world in 1usize..9,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        // Arbitrary payload lengths, including ones world does not divide:
        // with chunk = ⌈len/world⌉, rank k must receive exactly
        // sum[k·chunk .. min((k+1)·chunk, len)], bit-for-bit (rank-ordered
        // reduction), and trailing ranks may receive short or empty chunks.
        let contributions: Vec<Vec<f32>> = (0..world)
            .map(|r| {
                let mut rng = Rng::seed_from_u64(seed ^ (r as u64) << 8);
                (0..len).map(|_| rng.uniform(-10.0, 10.0)).collect()
            })
            .collect();
        let mut expected = vec![0.0f32; len];
        for c in &contributions {
            for (e, v) in expected.iter_mut().zip(c) {
                *e += *v;
            }
        }
        let outputs = ThreadComm::run(world, |comm| {
            comm.reduce_scatter(&contributions[comm.rank()])
        });
        let chunk = len.div_ceil(world);
        let mut covered = 0usize;
        for (rank, out) in outputs.iter().enumerate() {
            let start = (rank * chunk).min(len);
            let end = (start + chunk).min(len);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(out),
                bits(&expected[start..end]),
                "rank {} owns [{}, {})", rank, start, end
            );
            covered += out.len();
        }
        // The shards tile the payload exactly: nothing lost, nothing doubled.
        prop_assert_eq!(covered, len);
    }

    #[test]
    fn sharded_reduce_scatter_matches_allreduce_slices(
        world in 2usize..7,
        len in 1usize..48,
        seed in any::<u64>(),
        cut_sel in any::<u64>(),
        owner_sel in any::<u64>(),
    ) {
        // An arbitrary two-shard ownership spec: the reduce-scatter result a
        // rank owns must be bitwise the same slice of a plain allreduce.
        let cut = (cut_sel % (len as u64 + 1)) as usize;
        let owner_a = (owner_sel % world as u64) as usize;
        let owner_b = ((owner_sel >> 8) % world as u64) as usize;
        let shards = [
            ShardSpec { owner: owner_a, start: 0, len: cut },
            ShardSpec { owner: owner_b, start: cut, len: len - cut },
        ];
        let contributions: Vec<Vec<f32>> = (0..world)
            .map(|r| {
                let mut rng = Rng::seed_from_u64(seed ^ (r as u64) << 8);
                (0..len).map(|_| rng.uniform(-10.0, 10.0)).collect()
            })
            .collect();
        let reference = ThreadComm::run(world, |comm| {
            let mut buf = contributions[comm.rank()].clone();
            comm.allreduce(&mut buf, ReduceOp::Avg);
            buf
        });
        let outputs = ThreadComm::run(world, |comm| {
            let group: Vec<usize> = (0..world).collect();
            let pending = comm.begin_reduce_scatter(
                &contributions[comm.rank()],
                ReduceOp::Avg,
                &group,
                &shards,
                CommTag::FactorReduce,
            );
            let owned: usize =
                shards.iter().filter(|s| s.owner == comm.rank()).map(|s| s.len).sum();
            let mut out = vec![0.0f32; owned];
            comm.complete(pending, &mut out);
            out
        });
        for (rank, out) in outputs.iter().enumerate() {
            let expected: Vec<f32> = shards
                .iter()
                .filter(|s| s.owner == rank)
                .flat_map(|s| reference[rank][s.start..s.start + s.len].iter().copied())
                .collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(out), bits(&expected), "rank {}", rank);
        }
    }

    #[test]
    fn group_allgather_concatenates_variable_lengths(
        world in 2usize..7,
        lens_seed in any::<u64>(),
    ) {
        // Every rank contributes a different-length piece (possibly empty);
        // each member receives the concatenation in group rank order.
        let lens: Vec<usize> = (0..world).map(|r| ((lens_seed >> (4 * r)) % 5) as usize).collect();
        let expected: Vec<f32> = (0..world)
            .flat_map(|r| (0..lens[r]).map(move |i| (r * 100 + i) as f32))
            .collect();
        let outputs = ThreadComm::run(world, |comm| {
            let r = comm.rank();
            let send: Vec<f32> = (0..lens[r]).map(|i| (r * 100 + i) as f32).collect();
            let group: Vec<usize> = (0..world).collect();
            let pending = comm.begin_allgather(&send, &group, CommTag::FactorGather);
            let mut out = vec![0.0f32; lens.iter().sum()];
            comm.complete(pending, &mut out);
            out
        });
        for out in outputs {
            prop_assert_eq!(&out, &expected);
        }
    }

    #[test]
    fn disjoint_group_partition_never_cross_talks(world_half in 1usize..5, seed in any::<u64>()) {
        // Partition 2k ranks into k disjoint pairs, each broadcasting a
        // distinct value concurrently (the HYBRID-OPT pattern) for several
        // rounds; no pair may observe another pair's payload.
        let world = world_half * 2;
        let outputs = ThreadComm::run(world, |comm| {
            let r = comm.rank();
            let root = r - (r % 2);
            let group = [root, root + 1];
            let mut seen = Vec::new();
            for round in 0..5u64 {
                let value = (root as u64 * 17 + round * 3 + seed % 1000) as f32;
                let mut buf = if r == root { vec![value] } else { vec![-1.0] };
                comm.broadcast_group(&mut buf, root, &group);
                seen.push(buf[0]);
            }
            (root, seen)
        });
        for (root, seen) in outputs {
            for (round, v) in seen.iter().enumerate() {
                let expected = (root as u64 * 17 + round as u64 * 3 + seed % 1000) as f32;
                prop_assert_eq!(*v, expected, "group rooted at {} leaked data", root);
            }
        }
    }

    #[test]
    fn interleaved_collectives_match_per_group_order(world in 2usize..6, rounds in 1usize..6) {
        // Mixed sequence: world allreduce then subgroup allreduce per round.
        // Matching is per-group in-order, so results must be deterministic.
        let outputs = ThreadComm::run(world, |comm| {
            let mut acc = 0.0f32;
            let evens: Vec<usize> = (0..world).filter(|r| r % 2 == 0).collect();
            for round in 0..rounds {
                let mut buf = vec![(comm.rank() + round) as f32];
                comm.allreduce(&mut buf, ReduceOp::Sum);
                acc += buf[0];
                if comm.rank() % 2 == 0 && evens.len() > 1 {
                    let mut sub = vec![1.0f32];
                    comm.allreduce_group(&mut sub, ReduceOp::Sum, &evens);
                    acc += sub[0];
                }
            }
            acc
        });
        // All even ranks agree; all odd ranks agree.
        let even0 = outputs[0];
        for (r, &v) in outputs.iter().enumerate() {
            if r % 2 == 0 {
                prop_assert_eq!(v, even0);
            }
        }
    }
}

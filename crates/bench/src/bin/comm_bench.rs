//! Bustle-style communicator throughput harness: ops/sec and latency
//! percentiles per collective, ring backend vs mutex backend, written as
//! `BENCH_comm.json`.
//!
//! The map-bench Collection/Handle protocol, transliterated: a `ThreadComm`
//! world is the *Collection* (one shared engine), each rank thread owns a
//! *Handle* (its `ThreadComm`), and every thread drives a fixed op mix
//! against its handle while per-op latencies are recorded. Here the op mix
//! is one collective at a time — collectives are globally synchronizing, so
//! mixing them would only measure the slowest.
//!
//! ```sh
//! cargo run --release -p kaisa-bench --bin comm_bench            # full
//! cargo run --release -p kaisa-bench --bin comm_bench -- --quick # CI
//! cargo run --release -p kaisa-bench --bin comm_bench -- --no-gate --out p.json
//! cargo run --release -p kaisa-bench --bin comm_bench -- --worlds 8,16,64,128
//! ```
//!
//! `--worlds` takes a comma-separated list of world sizes and overrides the
//! built-in sweep (`8,16,32` full / `8` quick), so scaling past 32 ranks is
//! a flag rather than a recompile. The regression gate only runs when the
//! sweep includes the gate world (8).
//!
//! Unless `--no-gate` is passed, the run *fails* (exit 1) if at the gate
//! world (8) the ring backend regresses past the noise margin
//! ([`GATE_TOLERANCE`]) below the mutex backend on ops/sec or above it on
//! p99 latency for any collective — this is the CI regression gate for the
//! lock-free hot path. Both backends are measured in the same process on
//! the same machine with interleaved trials, so the comparison is
//! self-calibrating on noisy runners; the margin absorbs scheduler jitter
//! on oversubscribed single-core CI, where run-to-run swings reach ±15%.
//! On typical runs the ring backend wins p99 on every collective outright.

use std::time::Instant;

use kaisa_comm::{CommOptions, Communicator, ReduceOp, ThreadComm, ThreadCommBackend};

/// Elements per collective payload (4 KiB of f32 — the small-message regime
/// where per-op software overhead, not bandwidth, dominates).
const PAYLOAD: usize = 1024;
/// Warmup ops per rank before the timed window (interns groups, faults in
/// rings, settles the spin/park state).
const WARMUP: usize = 20;
/// Measured trials per (backend, world, collective); best trial is kept.
const TRIALS: usize = 3;
/// Relative noise margin for the CI gate: ring must stay within this
/// fraction of the mutex baseline on both metrics (and beats it outright on
/// quiet machines).
const GATE_TOLERANCE: f64 = 0.15;

#[derive(Clone, Copy, PartialEq)]
enum Collective {
    Allreduce,
    ReduceScatter,
    Allgather,
    Broadcast,
    Barrier,
}

const COLLECTIVES: [Collective; 5] = [
    Collective::Allreduce,
    Collective::ReduceScatter,
    Collective::Allgather,
    Collective::Broadcast,
    Collective::Barrier,
];

impl Collective {
    fn name(self) -> &'static str {
        match self {
            Collective::Allreduce => "allreduce",
            Collective::ReduceScatter => "reduce_scatter",
            Collective::Allgather => "allgather",
            Collective::Broadcast => "broadcast",
            Collective::Barrier => "barrier",
        }
    }

    /// One op against a rank's handle. `Avg` keeps allreduce values bounded
    /// across thousands of iterations.
    fn run(self, comm: &ThreadComm, buf: &mut [f32]) {
        match self {
            Collective::Allreduce => comm.allreduce(buf, ReduceOp::Avg),
            Collective::ReduceScatter => {
                let _ = comm.reduce_scatter(buf);
            }
            Collective::Allgather => {
                let _ = comm.allgather(&buf[..PAYLOAD / comm.world_size()]);
            }
            Collective::Broadcast => comm.broadcast(buf, 0),
            Collective::Barrier => comm.barrier(),
        }
    }
}

/// One backend's measurement for one (world, collective) cell.
#[derive(Clone, Copy)]
struct Sample {
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// Run one timed trial: every rank drives `iters` ops, the throughput
/// window is fenced by barriers, and per-op latencies from all ranks are
/// pooled for the percentiles.
fn trial(opts: &CommOptions, world: usize, iters: usize, op: Collective) -> Sample {
    let per_rank = ThreadComm::run_with(world, opts.clone(), |comm| {
        let mut buf = vec![comm.rank() as f32 + 1.0; PAYLOAD];
        for _ in 0..WARMUP {
            op.run(comm, &mut buf);
        }
        comm.barrier();
        let start = Instant::now();
        let mut lats = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            op.run(comm, &mut buf);
            lats.push(t.elapsed().as_secs_f64() * 1e6);
        }
        comm.barrier();
        (start.elapsed().as_secs_f64(), lats)
    });
    let span = per_rank.iter().map(|(s, _)| *s).fold(0.0f64, f64::max);
    let mut lats: Vec<f64> = per_rank.into_iter().flat_map(|(_, l)| l).collect();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Sample {
        ops_per_sec: (world * iters) as f64 / span,
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
    }
}

fn fold_best(best: Option<Sample>, s: Sample) -> Option<Sample> {
    Some(match best {
        None => s,
        Some(b) => Sample {
            ops_per_sec: b.ops_per_sec.max(s.ops_per_sec),
            p50_us: b.p50_us.min(s.p50_us),
            p99_us: b.p99_us.min(s.p99_us),
        },
    })
}

/// Measure both backends for one (world, collective) cell: best of
/// [`TRIALS`] trials each (max throughput, min percentiles — every trial is
/// a complete measurement, so the best one is the least-perturbed by
/// scheduler noise). Trials are *interleaved*, alternating which backend
/// goes first, so slow drift in machine speed (frequency scaling, cache
/// warm-up) biases neither backend.
fn measure_pair(world: usize, iters: usize, op: Collective) -> (Sample, Sample) {
    let ring_opts = CommOptions { backend: ThreadCommBackend::Ring, ..CommOptions::default() };
    let mutex_opts = CommOptions { backend: ThreadCommBackend::Mutex, ..CommOptions::default() };
    let (mut ring, mut mutex) = (None, None);
    for t in 0..TRIALS {
        if t % 2 == 0 {
            ring = fold_best(ring, trial(&ring_opts, world, iters, op));
            mutex = fold_best(mutex, trial(&mutex_opts, world, iters, op));
        } else {
            mutex = fold_best(mutex, trial(&mutex_opts, world, iters, op));
            ring = fold_best(ring, trial(&ring_opts, world, iters, op));
        }
    }
    (ring.expect("at least one trial"), mutex.expect("at least one trial"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_gate = args.iter().any(|a| a == "--no-gate");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_comm.json".to_string());

    let worlds: Vec<usize> = match args.iter().position(|a| a == "--worlds") {
        Some(i) => {
            let list = args.get(i + 1).unwrap_or_else(|| {
                panic!("--worlds needs a comma-separated list, e.g. --worlds 8,16,64")
            });
            let parsed: Vec<usize> = list
                .split(',')
                .map(|s| {
                    let w: usize = s
                        .trim()
                        .parse()
                        .unwrap_or_else(|e| panic!("--worlds: bad world size {s:?}: {e}"));
                    assert!(w >= 1, "--worlds: world size must be positive");
                    w
                })
                .collect();
            assert!(!parsed.is_empty(), "--worlds: empty list");
            parsed
        }
        None => {
            if quick {
                vec![8]
            } else {
                vec![8, 16, 32]
            }
        }
    };
    let iters = if quick { 200 } else { 1000 };
    const GATE_WORLD: usize = 8;

    eprintln!(
        "comm_bench: worlds={worlds:?} iters={iters} payload={PAYLOAD}xf32 trials={TRIALS} ({})",
        if quick { "quick" } else { "full" }
    );

    let mut world_blocks = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for &world in &worlds {
        let mut rows = Vec::new();
        for op in COLLECTIVES {
            let (ring, mutex) = measure_pair(world, iters, op);
            eprintln!(
                "world {world:>2} {:<14} ring {:>10.0} ops/s p99 {:>8.1} us | mutex {:>10.0} ops/s p99 {:>8.1} us",
                op.name(),
                ring.ops_per_sec,
                ring.p99_us,
                mutex.ops_per_sec,
                mutex.p99_us
            );
            if world == GATE_WORLD {
                if ring.ops_per_sec < mutex.ops_per_sec * (1.0 - GATE_TOLERANCE) {
                    gate_failures.push(format!(
                        "{}: ring {:.0} ops/s < mutex {:.0} ops/s - {:.0}% margin",
                        op.name(),
                        ring.ops_per_sec,
                        mutex.ops_per_sec,
                        GATE_TOLERANCE * 100.0
                    ));
                }
                if ring.p99_us > mutex.p99_us * (1.0 + GATE_TOLERANCE) {
                    gate_failures.push(format!(
                        "{}: ring p99 {:.1} us > mutex p99 {:.1} us + {:.0}% margin",
                        op.name(),
                        ring.p99_us,
                        mutex.p99_us,
                        GATE_TOLERANCE * 100.0
                    ));
                }
            }
            let cell = |s: Sample| {
                format!(
                    "{{\"ops_per_sec\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}}}",
                    s.ops_per_sec, s.p50_us, s.p99_us
                )
            };
            rows.push(format!(
                "        {{\"collective\": \"{}\", \"ring\": {}, \"mutex\": {}}}",
                op.name(),
                cell(ring),
                cell(mutex)
            ));
        }
        world_blocks.push(format!(
            "    {{\"world\": {world}, \"collectives\": [\n{}\n      ]}}",
            rows.join(",\n")
        ));
    }

    let gate_passed = gate_failures.is_empty();
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"kaisa-comm\",\n",
            "  \"quick\": {},\n",
            "  \"payload_elems\": {},\n",
            "  \"iters_per_rank\": {},\n",
            "  \"trials\": {},\n",
            "  \"worlds\": [\n{}\n  ],\n",
            "  \"gate\": {{\"world\": {}, \"tolerance\": {}, \"enforced\": {}, \"passed\": {}, \"failures\": [{}]}}\n",
            "}}\n"
        ),
        quick,
        PAYLOAD,
        iters,
        TRIALS,
        world_blocks.join(",\n"),
        GATE_WORLD,
        GATE_TOLERANCE,
        !no_gate,
        gate_passed,
        gate_failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");

    if !gate_passed {
        eprintln!("comm_bench gate FAILED at world {GATE_WORLD}:");
        for f in &gate_failures {
            eprintln!("  - {f}");
        }
        if no_gate {
            eprintln!("(--no-gate: reporting only, not failing)");
        } else {
            std::process::exit(1);
        }
    } else if worlds.contains(&GATE_WORLD) {
        eprintln!("comm_bench gate passed at world {GATE_WORLD}");
    } else {
        eprintln!("comm_bench gate skipped: world {GATE_WORLD} not in sweep {worlds:?}");
    }
}

//! Communicator payload sweep: ops/sec, latency percentiles and bandwidth
//! per collective and payload size, written as `BENCH_comm.json`.
//!
//! The map-bench Collection/Handle protocol, transliterated: a `ThreadComm`
//! world is the *Collection* (one shared engine), each rank thread owns a
//! *Handle* (its `ThreadComm`), and every thread drives one collective at a
//! time against its handle while per-op latencies are recorded —
//! collectives are globally synchronizing, so mixing them would only
//! measure the slowest.
//!
//! ```sh
//! cargo run --release -p kaisa-bench --bin comm_bench            # full
//! cargo run --release -p kaisa-bench --bin comm_bench -- --quick # CI
//! cargo run --release -p kaisa-bench --bin comm_bench -- --worlds 2,8,16 --out p.json
//! ```
//!
//! Payloads sweep 1 K → 4 M `f32` elements (4 KiB → 16 MiB): the small end
//! is where per-op software overhead dominates, the large end is bandwidth,
//! and K-FAC factor traffic sits at 0.25–1 M elements in between. Every
//! cell reports `ops_per_sec` (per-rank collective calls per second),
//! `p50_us`/`p99_us` (per-op latency pooled over ranks) and `gb_per_s`
//! (payload bytes moved through the collective per second, NCCL's
//! "algorithm bandwidth"). An allgather's payload is the gathered total, so
//! each rank contributes `payload / world`; a barrier has no payload and is
//! measured once per world.
//!
//! `--worlds` takes a comma-separated list of world sizes (default `2,8`
//! full, `2` quick). The harness explains end-to-end deltas; it gates
//! nothing.

use std::time::Instant;

use kaisa_comm::{Communicator, ReduceOp, ThreadComm};

/// Payload sizes in `f32` elements, 1 K → 4 M in steps of 4×.
const PAYLOADS: [usize; 7] = [1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22];
/// The `--quick` subset: both ends and the factor-traffic middle.
const QUICK_PAYLOADS: [usize; 4] = [1 << 10, 1 << 14, 1 << 18, 1 << 22];
/// Warmup ops per rank before the timed window (interns groups, faults in
/// rings and buffers, settles the spin/park state).
const WARMUP: usize = 5;
/// Measured trials per cell; the best trial is kept.
const TRIALS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Collective {
    Allreduce,
    Allgather,
    Broadcast,
    Barrier,
}

const COLLECTIVES: [Collective; 4] =
    [Collective::Allreduce, Collective::Allgather, Collective::Broadcast, Collective::Barrier];

impl Collective {
    fn name(self) -> &'static str {
        match self {
            Collective::Allreduce => "allreduce",
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
            Collective::Allgather => {
                let _ = comm.allgather(&buf[..buf.len() / comm.world_size()]);
            }
            Collective::Broadcast => comm.broadcast(buf, 0),
            Collective::Barrier => comm.barrier(),
        }
    }
}

/// One (world, collective, payload) measurement.
#[derive(Clone, Copy)]
struct Sample {
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    gb_per_s: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// Timed ops per rank for a payload: enough to fill about `budget_bytes`
/// of payload traffic, clamped so small payloads get a stable p99 and large
/// ones finish in well under a second.
fn iters_for(payload: usize, budget_bytes: usize) -> usize {
    (budget_bytes / (4 * payload)).clamp(10, 1000)
}

/// Run one timed trial: every rank drives `iters` ops, the throughput
/// window is fenced by barriers, and per-op latencies from all ranks are
/// pooled for the percentiles.
fn trial(world: usize, payload: usize, iters: usize, op: Collective) -> Sample {
    let per_rank = ThreadComm::run(world, |comm| {
        let mut buf = vec![comm.rank() as f32 + 1.0; payload];
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
    let bytes = if op == Collective::Barrier { 0 } else { 4 * payload };
    Sample {
        ops_per_sec: (world * iters) as f64 / span,
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        gb_per_s: (bytes * iters) as f64 / span / 1e9,
    }
}

/// Best of [`TRIALS`] trials (max throughput, min percentiles — every trial
/// is a complete measurement, so the best one is the least perturbed by
/// scheduler noise).
fn measure(world: usize, payload: usize, iters: usize, op: Collective) -> Sample {
    (0..TRIALS)
        .map(|_| trial(world, payload, iters, op))
        .reduce(|b, s| Sample {
            ops_per_sec: b.ops_per_sec.max(s.ops_per_sec),
            p50_us: b.p50_us.min(s.p50_us),
            p99_us: b.p99_us.min(s.p99_us),
            gb_per_s: b.gb_per_s.max(s.gb_per_s),
        })
        .expect("at least one trial")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_comm.json".to_string());

    let worlds: Vec<usize> = match args.iter().position(|a| a == "--worlds") {
        Some(i) => {
            let list = args.get(i + 1).unwrap_or_else(|| {
                panic!("--worlds needs a comma-separated list, e.g. --worlds 2,8,16")
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
        None if quick => vec![2],
        None => vec![2, 8],
    };
    let payloads: &[usize] = if quick { &QUICK_PAYLOADS } else { &PAYLOADS };
    let budget_bytes = if quick { 32 << 20 } else { 256 << 20 };

    eprintln!(
        "comm_bench: worlds={worlds:?} payloads={payloads:?}xf32 trials={TRIALS} ({})",
        if quick { "quick" } else { "full" }
    );

    let mut world_blocks = Vec::new();
    for &world in &worlds {
        let mut rows = Vec::new();
        for op in COLLECTIVES {
            let sizes: &[usize] = if op == Collective::Barrier { &[0] } else { payloads };
            for &payload in sizes {
                let iters = iters_for(payload.max(1), budget_bytes);
                let s = measure(world, payload, iters, op);
                eprintln!(
                    "world {world:>2} {:<14} {:>8} elems {:>11.0} ops/s p50 {:>9.1} us p99 {:>9.1} us {:>7.2} GB/s",
                    op.name(),
                    payload,
                    s.ops_per_sec,
                    s.p50_us,
                    s.p99_us,
                    s.gb_per_s
                );
                rows.push(format!(
                    "        {{\"collective\": \"{}\", \"payload_elems\": {payload}, \"iters_per_rank\": {iters}, \"ops_per_sec\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"gb_per_s\": {:.3}}}",
                    op.name(),
                    s.ops_per_sec,
                    s.p50_us,
                    s.p99_us,
                    s.gb_per_s
                ));
            }
        }
        world_blocks.push(format!(
            "    {{\"world\": {world}, \"cells\": [\n{}\n      ]}}",
            rows.join(",\n")
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"kaisa-comm\",\n",
            "  \"quick\": {},\n",
            "  \"trials\": {},\n",
            "  \"worlds\": [\n{}\n  ]\n",
            "}}\n"
        ),
        quick,
        TRIALS,
        world_blocks.join(",\n"),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");
}

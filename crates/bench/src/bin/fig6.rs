//! Figure 6: average iteration time and K-FAC memory overhead across
//! `grad_worker_frac` values, for ResNet-{18,50,101,152}, Mask R-CNN, and
//! BERT-Large on a simulated 64-V100 cluster — plus a live validation sweep
//! on thread ranks.
//!
//! ```sh
//! cargo run --release -p kaisa-bench --bin fig6
//! ```

use kaisa_bench::{render_table, sparkline};
use kaisa_comm::{Communicator, ThreadComm};
use kaisa_core::{Kfac, KfacConfig, MemoryCategory};
use kaisa_data::{Dataset, PatternImages, ShardSampler};
use kaisa_nn::models::{ResNetMini, ResNetMiniConfig};
use kaisa_nn::Model;
use kaisa_sim::experiments::{fig6, FIG6_FRACS};
use kaisa_tensor::Rng;

fn simulated() {
    println!("== Simulated (64 x V100, true layer inventories) ==\n");
    let rows = fig6();
    for model in ["ResNet-18", "ResNet-50", "ResNet-101", "ResNet-152", "Mask R-CNN", "BERT-Large"]
    {
        let series: Vec<&kaisa_sim::experiments::Fig6Row> =
            rows.iter().filter(|r| r.model == model).collect();
        let table: Vec<Vec<String>> = series
            .iter()
            .map(|r| {
                vec![
                    format!("{:.4}", r.frac),
                    format!("{:.1}", r.iter_seconds * 1e3),
                    format!("{:.0}", r.kfac_overhead_mb),
                ]
            })
            .collect();
        println!("--- {model} ---");
        println!("{}", render_table(&["frac", "iter ms", "K-FAC MB"], &table));
        let times: Vec<f64> = series.iter().map(|r| r.iter_seconds).collect();
        let mems: Vec<f64> = series.iter().map(|r| r.kfac_overhead_mb).collect();
        println!("time {}   memory {}\n", sparkline(&times), sparkline(&mems));
    }
}

fn live() {
    println!("== Live validation (8 thread ranks, ResNetMini) ==\n");
    let world = 8;
    let dataset = PatternImages::generate(256, 3, 12, 4, 0.3, 120);
    let model_cfg = ResNetMiniConfig {
        in_channels: 3,
        width: 6,
        blocks_stage1: 2,
        blocks_stage2: 2,
        classes: 4,
    };
    let fracs = [1.0 / 8.0, 0.25, 0.5, 1.0];
    let mut table = Vec::new();
    let mut rank0 = Vec::new();
    for &frac in &fracs {
        let run = ThreadComm::run(world, |comm| {
            let mut model = ResNetMini::new(model_cfg, &mut Rng::seed_from_u64(30));
            let cfg = KfacConfig::builder()
                .grad_worker_frac(frac)
                .factor_update_freq(2)
                .inv_update_freq(4)
                .build();
            let mut kfac = Kfac::new(cfg, &mut model, comm);
            let sampler = ShardSampler::new(dataset.len(), world, comm.rank(), 4, 3);
            let start = std::time::Instant::now();
            let mut steps = 0usize;
            for indices in sampler.epoch_batches(0) {
                let (x, y) = dataset.batch(&indices);
                kfac.prepare(&mut model);
                model.zero_grad();
                let _ = model.forward_backward(&x, &y);
                kaisa_trainer::allreduce_gradients(&mut model, comm, 1);
                kfac.step(&mut model, comm, 0.05);
                steps += 1;
            }
            (
                start.elapsed().as_secs_f64() / steps as f64,
                kfac.memory_bytes(),
                kfac.comm_bytes(),
                kfac.memory_meter().peak(MemoryCategory::Factors),
            )
        });
        let (iter_s, mem, sent, _) = run[0];
        let max_mem = run.iter().map(|r| r.1).max().unwrap();
        let peak_factors = run.iter().map(|r| r.3).max().unwrap();
        rank0.push((mem, sent));
        table.push(vec![
            format!("{frac:.3}"),
            format!("{:.1}", iter_s * 1e3),
            format!("{}", mem / 1024),
            format!("{}", max_mem / 1024),
            format!("{sent}"),
            format!("{}", peak_factors / 1024),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "frac",
                "iter ms",
                "rank0 K-FAC KiB",
                "max K-FAC KiB",
                "rank0 sent B",
                "peak factor KiB",
            ],
            &table
        )
    );
    let ((mem_lo, sent_lo), (mem_hi, sent_hi)) = (rank0[0], rank0[rank0.len() - 1]);
    println!(
        "(from frac {:.3} to {:.3}, rank-0 K-FAC memory {} ({} -> {} KiB) and rank-0 send \
         volume {} ({sent_lo} -> {sent_hi} B);",
        fracs[0],
        fracs[fracs.len() - 1],
        direction(mem_lo, mem_hi),
        mem_lo / 1024,
        mem_hi / 1024,
        direction(sent_lo, sent_hi),
    );
    if sent_hi > sent_lo {
        println!(
            " at this sweep's inv_update_freq(4), COMM-OPT's eigendecomposition broadcast to \
             every rank outweighs the gradient broadcast it removes; Figure 6's falling volume \
             assumes Table 2's longer intervals;"
        );
    } else {
        println!(" memory bought with send volume — the Figure 6 tradeoff;");
    }
    println!(" the factor column is the MemoryMeter-measured peak, the same at every frac)");
}

/// How a quantity moved between the first and the last row of a sweep.
fn direction<T: Ord>(first: T, last: T) -> &'static str {
    match last.cmp(&first) {
        std::cmp::Ordering::Greater => "rises",
        std::cmp::Ordering::Less => "falls",
        std::cmp::Ordering::Equal => "stays flat",
    }
}

fn main() {
    println!("Figure 6 — iteration time and K-FAC memory overhead vs grad_worker_frac");
    println!("fracs: {FIG6_FRACS:?}\n");
    simulated();
    live();
}

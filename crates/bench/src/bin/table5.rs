//! Table 5: per-GPU training memory — SGD vs. K-FAC at minimum
//! (`frac = 1/64`) and maximum (`frac = 1`) gradient-worker counts.
//!
//! ```sh
//! cargo run --release -p kaisa-bench --bin table5
//! ```

use kaisa_bench::render_table;
use kaisa_comm::{Communicator, ThreadComm};
use kaisa_core::{Kfac, KfacConfig, MemoryCategory, MemoryMeter};
use kaisa_data::{Dataset, PatternImages, ShardSampler};
use kaisa_nn::models::{ResNetMini, ResNetMiniConfig};
use kaisa_nn::Model;
use kaisa_sim::experiments::table5;
use kaisa_tensor::Rng;

/// Live counterpart of the analytic table: run ResNetMini on 8 thread ranks
/// and report the per-rank `MemoryMeter` peaks.
fn live_meter() {
    println!("\n== Live per-rank MemoryMeter (8 thread ranks, ResNetMini) ==\n");
    let world = 8;
    let dataset = PatternImages::generate(128, 3, 12, 4, 0.3, 121);
    let model_cfg = ResNetMiniConfig {
        in_channels: 3,
        width: 6,
        blocks_stage1: 2,
        blocks_stage2: 2,
        classes: 4,
    };
    let meters: Vec<MemoryMeter> = ThreadComm::run(world, |comm| {
        let mut model = ResNetMini::new(model_cfg, &mut Rng::seed_from_u64(30));
        let cfg = KfacConfig::builder()
            .grad_worker_frac(0.25)
            .factor_update_freq(2)
            .inv_update_freq(4)
            .build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        let sampler = ShardSampler::new(dataset.len(), world, comm.rank(), 4, 2);
        for indices in sampler.epoch_batches(0) {
            let (x, y) = dataset.batch(&indices);
            kfac.prepare(&mut model);
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            kaisa_trainer::allreduce_gradients(&mut model, comm, 1);
            kfac.step(&mut model, comm, 0.05);
        }
        kfac.memory_meter().clone()
    });
    let table: Vec<Vec<String>> = MemoryCategory::ALL
        .iter()
        .map(|&cat| {
            let peak = meters.iter().map(|m| m.peak(cat)).max().unwrap_or(0);
            vec![cat.name().to_string(), format!("{peak}")]
        })
        .collect();
    println!("{}", render_table(&["category", "peak B"], &table));
    println!("(peaks are the max over ranks; every rank holds every factor)");
}

fn main() {
    println!("Table 5 — simulated per-GPU memory on 64 V100s (MB)\n");
    let rows = table5();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.to_string(),
                r.precision.to_string(),
                format!("{:.0}", r.sgd_mb),
                format!("{:.0}", r.kfac_min_mb),
                format!("{:.1}%", r.min_delta_pct),
                format!("{:.0}", r.kfac_max_mb),
                format!("{:.1}%", r.max_delta_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Model", "Precision", "SGD Abs.", "K-FAC Min", "Δ", "K-FAC Max", "Δ"],
            &table
        )
    );
    println!("\nPaper's measured values for comparison (Table 5):");
    let paper = [
        ["ResNet-18", "FP32", "2454", "2838", "16.7%", "3260", "32.8%"],
        ["ResNet-50", "FP32", "4762", "5396", "13.3%", "6608", "38.8%"],
        ["ResNet-101", "FP32", "6313", "7463", "18.2%", "8755", "38.7%"],
        ["ResNet-152", "FP32", "6620", "8204", "23.9%", "9092", "37.3%"],
        ["Mask R-CNN", "FP32", "6553", "6650", "1.5%", "6743", "2.9%"],
        ["BERT-Large", "FP16", "8254", "9555", "15.8%", "12038", "45.8%"],
    ];
    let paper_rows: Vec<Vec<String>> =
        paper.iter().map(|r| r.iter().map(|s| s.to_string()).collect()).collect();
    println!(
        "{}",
        render_table(
            &["Model", "Precision", "SGD Abs.", "K-FAC Min", "Δ", "K-FAC Max", "Δ"],
            &paper_rows
        )
    );
    println!("\nShape checks: K-FAC overhead grows with frac for every model; the");
    println!("max/min overhead ratio is 1.5-2.9x; Mask R-CNN's overhead is by far");
    println!("the smallest (only the ROI heads are preconditioned).");
    live_meter();
}

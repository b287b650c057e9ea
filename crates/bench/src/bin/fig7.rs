//! Figure 7: per-stage time inside `KFAC.step()` across `grad_worker_frac`
//! — simulated for ResNet-50 on 64 V100s, and measured live from the
//! preconditioner's stage timers on 8 thread ranks, comparing the serial
//! completion order against the pipelined (compute/comm-overlap) one.
//!
//! ```sh
//! cargo run --release -p kaisa-bench --bin fig7
//! ```

use kaisa_bench::render_table;
use kaisa_comm::{CommTag, Communicator, MeterSnapshot, ThreadComm};
use kaisa_core::{Kfac, KfacConfig, KFAC_STAGES};
use kaisa_data::{Dataset, GaussianBlobs, ShardSampler};
use kaisa_nn::models::Mlp;
use kaisa_nn::Model;
use kaisa_sim::experiments::{fig7, FIG6_FRACS};
use kaisa_tensor::Rng;

fn simulated() {
    println!("== Simulated (ResNet-50, 64 x V100), ms per average iteration ==\n");
    let rows = fig7();
    let mut table = Vec::new();
    for stage in [
        "compute factors",
        "communicate factors",
        "compute eigendecomp",
        "communicate eigendecomp",
        "precondition gradient",
        "communicate gradient",
        "scale and update grads",
    ] {
        let mut row = vec![stage.to_string()];
        for &frac in &FIG6_FRACS {
            let v = rows
                .iter()
                .find(|r| r.stage == stage && (r.frac - frac).abs() < 1e-12)
                .map(|r| r.seconds)
                .unwrap_or(0.0);
            row.push(format!("{:.2}", v * 1e3));
        }
        table.push(row);
    }
    let mut header: Vec<String> = vec!["stage".into()];
    header.extend(FIG6_FRACS.iter().map(|f| format!("{f:.3}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", render_table(&header_refs, &table));
    println!("(gradient broadcast falls to 0 at frac=1 while preconditioning rises — Figure 7's tradeoff)\n");
}

struct LiveRun {
    averages: [f64; 7],
    kfac_seconds: f64,
    steps: u64,
    layer_report: String,
    meter: MeterSnapshot,
}

fn run_live(world: usize, frac: f64, pipelined: bool) -> LiveRun {
    let dataset = GaussianBlobs::generate(512, 32, 4, 0.4, 130);
    let mut results = ThreadComm::run(world, |comm| {
        let mut model = Mlp::new(&[32, 64, 48, 4], &mut Rng::seed_from_u64(31));
        let cfg = KfacConfig::builder()
            .grad_worker_frac(frac)
            .factor_update_freq(5)
            .inv_update_freq(10)
            .pipelined(pipelined)
            .build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        let sampler = ShardSampler::new(dataset.len(), world, comm.rank(), 8, 3);
        for epoch in 0..3 {
            for indices in sampler.epoch_batches(epoch) {
                let (x, y) = dataset.batch(&indices);
                kfac.prepare(&mut model);
                model.zero_grad();
                let _ = model.forward_backward(&x, &y);
                kaisa_trainer::allreduce_gradients(&mut model, comm, 1);
                kfac.step(&mut model, comm, 0.05);
            }
        }
        comm.barrier();
        let times = kfac.stage_times();
        LiveRun {
            averages: times.averages(),
            kfac_seconds: times.total_seconds(),
            steps: times.steps,
            layer_report: times.layer_report(),
            meter: comm.meter_snapshot(),
        }
    });
    results.swap_remove(0)
}

fn live() {
    println!("== Live stage timers (MLP on 8 thread ranks), ms per step ==\n");
    let world = 8;
    let fracs = [1.0 / 8.0, 0.5, 1.0];
    let mut stage_table: Vec<Vec<String>> =
        KFAC_STAGES.iter().map(|s| vec![s.to_string()]).collect();
    let mut totals: Vec<Vec<String>> =
        vec![vec!["serial".to_string()], vec!["pipelined".to_string()]];
    let mut sample: Option<LiveRun> = None;
    for &frac in &fracs {
        let serial = run_live(world, frac, false);
        let pipelined = run_live(world, frac, true);
        for (row, avg) in stage_table.iter_mut().zip(pipelined.averages) {
            row.push(format!("{:.3}", avg * 1e3));
        }
        totals[0].push(format!("{:.3}", serial.kfac_seconds / serial.steps.max(1) as f64 * 1e3));
        totals[1]
            .push(format!("{:.3}", pipelined.kfac_seconds / pipelined.steps.max(1) as f64 * 1e3));
        if (frac - 0.5).abs() < 1e-12 {
            sample = Some(pipelined);
        }
    }
    let mut header: Vec<String> = vec!["stage (pipelined)".into()];
    header.extend(fracs.iter().map(|f| format!("frac {f:.3}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", render_table(&header_refs, &stage_table));

    let mut header: Vec<String> = vec!["KFAC.step total".into()];
    header.extend(fracs.iter().map(|f| format!("frac {f:.3}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", render_table(&header_refs, &totals));
    println!("(thread-rank timers share host cores, so wall-clock overlap is bounded)\n");

    if let Some(run) = sample {
        println!("== Per-layer stage breakdown (frac 0.5, pipelined), ms per step ==\n");
        println!("{}", run.layer_report);
        println!("== Metered K-FAC traffic by issuing stage (frac 0.5, world total) ==\n");
        let rows: Vec<Vec<String>> = CommTag::ALL
            .iter()
            .filter(|&&tag| run.meter.tag_calls(tag) > 0)
            .map(|&tag| {
                vec![
                    format!("{tag:?}"),
                    format!("{}", run.meter.tag_calls(tag)),
                    format!("{}", run.meter.tag_bytes(tag)),
                ]
            })
            .collect();
        println!("{}", render_table(&["stage tag", "collectives", "bytes"], &rows));
    }
}

fn main() {
    println!("Figure 7 — time per KFAC.step() section vs grad_worker_frac\n");
    simulated();
    live();
}

//! Figure 7: per-stage time inside `KFAC.step()` across `grad_worker_frac`
//! — simulated for ResNet-50 on 64 V100s, and measured live from the
//! preconditioner's stage timers on 8 thread ranks, comparing the serial
//! executor against the pipelined (compute/comm-overlap) executor.
//!
//! ```sh
//! cargo run --release -p kaisa-bench --bin fig7
//! ```

use kaisa_bench::render_table;
use kaisa_comm::{
    ClusterNetwork, CollectiveCostModel, CommTag, Communicator, MeterSnapshot, ThreadComm,
};
use kaisa_core::{
    auto_strategy, modeled_strategy_makespans, plan_assignments, AssignmentStrategy, ComputeRates,
    FactorReduction, Kfac, KfacConfig, StepModel, StepModelOptions, KFAC_STAGES,
};
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

fn run_live(world: usize, frac: f64, pipelined: bool, sharded: bool) -> LiveRun {
    let dataset = GaussianBlobs::generate(512, 32, 4, 0.4, 130);
    let mut results = ThreadComm::run(world, |comm| {
        let mut model = Mlp::new(&[32, 64, 48, 4], &mut Rng::seed_from_u64(31));
        let cfg = KfacConfig::builder()
            .grad_worker_frac(frac)
            .factor_update_freq(5)
            .inv_update_freq(10)
            .pipelined(pipelined)
            .sharded_factors(sharded)
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
        let serial = run_live(world, frac, false, false);
        let pipelined = run_live(world, frac, true, false);
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
    println!("(thread-rank timers share host cores, so wall-clock overlap is bounded; the cost model below isolates the schedule effect)\n");

    if let Some(run) = sample {
        println!("== Per-layer stage breakdown (frac 0.5, pipelined), ms per step ==\n");
        println!("{}", run.layer_report);
        println!("== Metered K-FAC traffic by issuing stage (frac 0.5, world total) ==\n");
        let rows: Vec<Vec<String>> = CommTag::ALL
            .iter()
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

/// ResNetMini-shaped factor dims (width 32, 2+2 blocks): the acceptance
/// configuration for the overlap win on a comm-bound network.
fn resnet_mini_dims() -> Vec<(usize, usize)> {
    vec![
        (27, 32),
        (288, 32),
        (288, 32),
        (288, 32),
        (288, 32),
        (288, 64),
        (576, 64),
        (32, 64),
        (576, 64),
        (576, 64),
        (65, 10),
    ]
}

fn cost_model() {
    println!("== α–β cost model: serial vs pipelined step makespan (world 8) ==\n");
    let dims = resnet_mini_dims();
    let world = 8;
    let mut rows = Vec::new();
    for frac in [1.0 / world as f64, 0.5, 1.0] {
        let plan = plan_assignments(&dims, world, frac, AssignmentStrategy::ComputeLpt);
        for (name, net) in [
            ("10GbE", ClusterNetwork::ethernet_10g()),
            ("IB-EDR", ClusterNetwork::infiniband_edr()),
        ] {
            let cost = CollectiveCostModel::new(net);
            let m = StepModel::new(&dims, &plan, &cost, &ComputeRates::default(), 4, false);
            rows.push(vec![
                format!("{frac:.3}"),
                name.to_string(),
                format!("{:.3}", m.serial_seconds() * 1e3),
                format!("{:.3}", m.pipelined_seconds() * 1e3),
                format!("{:.2}x", m.overlap_speedup()),
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["frac", "network", "serial ms", "pipelined ms", "speedup"], &rows)
    );

    println!("== Strategy dispatch: modeled amortized ms/iter (batch 32, F=10, K=100) ==\n");
    let mut rows = Vec::new();
    for world in [8usize, 64] {
        for (name, net) in [
            ("10GbE", ClusterNetwork::ethernet_10g()),
            ("IB-EDR", ClusterNetwork::infiniband_edr()),
        ] {
            let table = modeled_strategy_makespans(&dims, world, net, 32, 10, 100);
            let pick = auto_strategy(&dims, world, net);
            let mut row = vec![format!("{world}"), name.to_string()];
            for &(_, secs) in &table {
                row.push(format!("{:.3}", secs * 1e3));
            }
            row.push(pick.to_string());
            rows.push(row);
        }
    }
    println!(
        "{}",
        render_table(
            &["world", "network", "MEM-OPT", "HYBRID-OPT", "COMM-OPT", "LOCAL-OPT", "auto pick"],
            &rows
        )
    );
    println!("(LOCAL-OPT is DP-KFAC's zero-factor-traffic point — shown for the tradeoff, never auto-picked because it changes the update)\n");
}

fn sharded() {
    println!("== Sharded factor reduction: reduce-scatter vs dense allreduce (frac 0.5) ==\n");
    // Live metered factor traffic over the whole run (world totals; the
    // meter is shared across thread ranks).
    let mut rows = Vec::new();
    for world in [4usize, 8] {
        let dense = run_live(world, 0.5, true, false);
        let shard = run_live(world, 0.5, true, true);
        let dense_bytes = dense.meter.tag_bytes(CommTag::FactorComm);
        let shard_bytes = shard.meter.tag_bytes(CommTag::FactorReduce)
            + shard.meter.tag_bytes(CommTag::FactorGather);
        let steps = dense.steps.max(1);
        rows.push(vec![
            format!("{world}"),
            format!("{:.0}", dense_bytes as f64 / steps as f64),
            format!("{:.0}", shard_bytes as f64 / steps as f64),
            format!("{:.1}%", 100.0 * (1.0 - shard_bytes as f64 / dense_bytes.max(1) as f64)),
        ]);
    }
    println!(
        "{}",
        render_table(&["world", "dense factor B/step", "sharded factor B/step", "saved"], &rows)
    );

    // Modeled pipelined makespans on the ResNetMini dims.
    let dims = resnet_mini_dims();
    let rates = ComputeRates::default();
    let mut rows = Vec::new();
    for world in [4usize, 8] {
        let plan = plan_assignments(&dims, world, 0.5, AssignmentStrategy::ComputeLpt);
        for (name, net) in [
            ("10GbE", ClusterNetwork::ethernet_10g()),
            ("IB-EDR", ClusterNetwork::infiniband_edr()),
        ] {
            let cost = CollectiveCostModel::new(net);
            let dense_opts = StepModelOptions::dense(4, false);
            let shard_opts =
                StepModelOptions { reduction: FactorReduction::ShardedReduceScatter, ..dense_opts };
            let ms = |opts: StepModelOptions| {
                StepModel::with_options(&dims, &plan, &cost, &rates, opts).pipelined_seconds() * 1e3
            };
            rows.push(vec![
                format!("{world}"),
                name.to_string(),
                format!("{:.3}", ms(dense_opts)),
                format!("{:.3}", ms(shard_opts)),
            ]);
        }
    }
    println!("{}", render_table(&["world", "network", "dense ms", "sharded ms"], &rows));
}

fn main() {
    println!("Figure 7 — time per KFAC.step() section vs grad_worker_frac\n");
    simulated();
    live();
    cost_model();
    sharded();
}

//! # repro
//!
//! The paper's evaluation section, one artefact at a time: Figures 1 and
//! 5–8 and Tables 1–5, on the simulated clusters of `kaisa-sim` and on
//! live thread-rank worlds at miniature scale.
//!
//! ```sh
//! cargo run --release -p kaisa-bench --bin repro -- fig6   # one artefact
//! cargo run --release -p kaisa-bench --bin repro -- all    # every artefact
//! ```
//!
//! Every artefact prints its *exact* lines on stdout: simulated tables,
//! per-epoch metrics, epochs and iterations to target, bytes and memory.
//! These depend on nothing but the code, so `results/repro/<name>.txt`
//! holds `repro <name> 2>/dev/null` and CI diffs it on one core. Its
//! *timing* lines (wall seconds, ms per iteration or stage, time ratios)
//! go to stderr and are never pinned. See `EXPERIMENTS.md` for the
//! paper-vs-measured comparison.

#![forbid(unsafe_code)]

use std::time::Instant;

use kaisa_comm::{CommTag, Communicator, ThreadComm};
use kaisa_core::{Kfac, KfacConfig, MemoryCategory, KFAC_STAGES};
use kaisa_data::{
    BlobSegmentation, Dataset, GaussianBlobs, MaskedTokenTask, PatternImages, SequenceRules,
    ShardSampler,
};
use kaisa_nn::models::{
    BertMini, BertMiniConfig, Mlp, ResNetMini, ResNetMiniConfig, RoiHeadMini, RoiTargets, UNetMini,
};
use kaisa_nn::Model;
use kaisa_optim::{Adam, Lamb, LrSchedule, Optimizer, Sgd};
use kaisa_sim::experiments as sim;
use kaisa_tensor::{Matrix, Rng};
use kaisa_trainer::{train_distributed, TrainConfig, TrainResult};

/// Every artefact, by the name `repro` takes and `results/repro/` files.
const ARTEFACTS: [(&str, fn()); 9] = [
    ("fig1", fig1),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("tables", tables),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<fn()> = ARTEFACTS
        .iter()
        .filter(|(n, _)| name == "all" || *n == name)
        .map(|&(_, run)| run)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = ARTEFACTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: repro <{}|all>", names.join("|"));
        std::process::exit(2);
    }
    for run in chosen {
        run();
    }
}

/// Render an aligned text table (header + rows).
fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: Vec<&str>| -> String {
        cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
    };
    let mut out = fmt_row(header.to_vec());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect()));
        out.push('\n');
    }
    out
}

/// [`render_table`] with an owned header, for columns built from a sweep.
fn render_sweep(
    first: &str,
    columns: impl Iterator<Item = String>,
    rows: &[Vec<String>],
) -> String {
    let header: Vec<String> = std::iter::once(first.to_string()).chain(columns).collect();
    render_table(&header.iter().map(String::as_str).collect::<Vec<_>>(), rows)
}

/// An ASCII sparkline of a series.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values.iter().map(|v| BARS[(((v - min) / span) * 7.0).round() as usize]).collect()
}

/// The K-FAC intervals of the convergence figures (Figs. 1 and 5).
fn kfac_4_8() -> KfacConfig {
    KfacConfig::builder().factor_update_freq(4).inv_update_freq(8).build()
}

/// ResNetMini at world 2 on synthetic pattern images, SGD with momentum
/// (Figs. 1 and 5(a)). `seeds` are (training data; validation data is the
/// next seed, shard sampler, model init).
fn resnet_mini(seeds: (u64, u64, u64), kfac: Option<KfacConfig>) -> TrainResult {
    let (data, sampler, init) = seeds;
    let train = PatternImages::generate(384, 3, 12, 8, 0.8, data);
    let val = PatternImages::generate(128, 3, 12, 8, 0.8, data + 1);
    let model_cfg = ResNetMiniConfig {
        in_channels: 3,
        width: 4,
        blocks_stage1: 1,
        blocks_stage2: 1,
        classes: 8,
    };
    let cfg = TrainConfig {
        epochs: 14,
        local_batch: 16,
        schedule: LrSchedule::Warmup { lr: 0.03, warmup: 10 },
        kfac,
        seed: sampler,
        ..Default::default()
    };
    train_distributed(
        2,
        || ResNetMini::new(model_cfg, &mut Rng::seed_from_u64(init)),
        || Sgd::with_momentum(0.9),
        &train,
        &val,
        &cfg,
    )
}

/// Every rank of a `world`-rank thread world runs `epochs` epochs of
/// `batch`-sample data-parallel K-FAC steps (forward/backward, gradient
/// allreduce, `Kfac::step`; no optimizer update) and, after a closing
/// barrier, returns `report(comm, kfac, wall seconds per step)`.
fn kfac_ranks<M, D, T>(
    world: usize,
    data: &D,
    (batch, seed, epochs): (usize, u64, usize),
    make_model: impl Fn() -> M + Sync,
    cfg: &KfacConfig,
    report: impl Fn(&ThreadComm, &Kfac, f64) -> T + Sync,
) -> Vec<T>
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + Sync,
    T: Send,
{
    ThreadComm::run(world, |comm| {
        let mut model = make_model();
        let mut kfac = Kfac::new(cfg.clone(), &mut model, comm);
        let sampler = ShardSampler::new(data.len(), world, comm.rank(), batch, seed);
        let start = Instant::now();
        let mut steps = 0usize;
        for epoch in 0..epochs {
            for indices in sampler.epoch_batches(epoch) {
                let (x, y) = data.batch(&indices);
                kfac.prepare(&mut model);
                model.zero_grad();
                let _ = model.forward_backward(&x, &y);
                kaisa_trainer::allreduce_gradients(&mut model, comm, 1);
                kfac.step(&mut model, comm, 0.05);
                steps += 1;
            }
        }
        let step_seconds = start.elapsed().as_secs_f64() / steps as f64;
        comm.barrier();
        report(comm, &kfac, step_seconds)
    })
}

/// The ResNetMini of the live fig6 / Table 5 worlds (world 8).
fn live_resnet() -> ResNetMini {
    let cfg = ResNetMiniConfig {
        in_channels: 3,
        width: 6,
        blocks_stage1: 2,
        blocks_stage2: 2,
        classes: 4,
    };
    ResNetMini::new(cfg, &mut Rng::seed_from_u64(30))
}

/// K-FAC at `frac` with the live fig6 / Table 5 intervals.
fn live_kfac(frac: f64) -> KfacConfig {
    KfacConfig::builder().grad_worker_frac(frac).factor_update_freq(2).inv_update_freq(4).build()
}

/// Figure 1: SGD vs K-FAC epochs-to-convergence. The paper trains
/// ResNet-32 on CIFAR-10 and reports ~40% fewer epochs with K-FAC.
fn fig1() {
    println!("Figure 1 — SGD vs K-FAC validation accuracy per epoch");
    println!("(paper: ResNet-32/CIFAR-10 on GPUs; here: ResNetMini/synthetic patterns)\n");
    let sgd = resnet_mini((100, 10, 20), None);
    let kfac = resnet_mini((100, 10, 20), Some(kfac_4_8()));
    let rows: Vec<Vec<String>> = sgd
        .epochs
        .iter()
        .zip(&kfac.epochs)
        .map(|(s, k)| {
            vec![
                s.epoch.to_string(),
                format!("{:.3}", s.val_metric),
                format!("{:.3}", k.val_metric),
            ]
        })
        .collect();
    println!("{}", render_table(&["epoch", "SGD val acc", "K-FAC val acc"], &rows));
    let series =
        |r: &TrainResult| -> Vec<f64> { r.epochs.iter().map(|e| e.val_metric as f64).collect() };
    println!("SGD   {}", sparkline(&series(&sgd)));
    println!("K-FAC {}", sparkline(&series(&kfac)));

    let target = 0.9f32;
    let se = sgd.epochs_to_metric(target);
    let ke = kfac.epochs_to_metric(target);
    println!("\nepochs to {target:.2} val acc: SGD {se:?}, K-FAC {ke:?}");
    if let (Some(s), Some(k)) = (se, ke) {
        println!(
            "K-FAC reached the target in {:.0}% fewer epochs (paper: ~40% for ResNet-32)",
            100.0 * (s as f64 - k as f64) / s as f64
        );
    }
}

/// One optimizer's validation curve: (metric, cumulative wall seconds) per
/// epoch.
type Curve = Vec<(f32, f64)>;

fn curve(r: &TrainResult) -> Curve {
    r.epochs.iter().map(|e| (e.val_metric, e.cumulative_seconds)).collect()
}

/// One Figure 5 panel: the per-epoch metrics, epochs to target and the
/// final and best metric of both optimizers (exact); wall seconds per epoch
/// and to target (timing).
fn fig5_panel(name: &str, base_name: &str, metric: &str, target: f32, base: &Curve, kfac: &Curve) {
    println!("--- Figure 5{name}: {base_name} vs KAISA ({metric}, target {target}) ---");
    let rows = |f: &dyn Fn(&(f32, f64)) -> String| -> Vec<Vec<String>> {
        base.iter()
            .zip(kfac)
            .enumerate()
            .map(|(e, (b, k))| vec![e.to_string(), f(b), f(k)])
            .collect()
    };
    println!("{}", render_table(&["epoch", base_name, "KAISA"], &rows(&|p| format!("{:.3}", p.0))));
    let to_target = |c: &Curve| c.iter().position(|p| p.0 >= target);
    let (be, ke) = (to_target(base), to_target(kfac));
    println!("epochs to target: {base_name} {be:?}, KAISA {ke:?}");
    let last = |c: &Curve| c.last().map_or(f32::NAN, |p| p.0);
    let best = |c: &Curve| c.iter().map(|p| p.0).fold(f32::NEG_INFINITY, f32::max);
    println!(
        "final {metric}: {base_name} {:.3}, KAISA {:.3}; best: {base_name} {:.3}, KAISA {:.3}",
        last(base),
        last(kfac),
        best(base),
        best(kfac)
    );
    eprintln!("--- Figure 5{name}: cumulative wall seconds ---");
    eprintln!(
        "{}",
        render_table(&["epoch", "base s", "KAISA s"], &rows(&|p| format!("{:.1}", p.1)))
    );
    if let (Some(be), Some(ke)) = (be, ke) {
        println!(
            "KAISA: {:.0}% fewer epochs",
            100.0 * (be as f64 - ke as f64) / (be.max(1)) as f64
        );
        let (bs, ks) = (base[be].1, kfac[ke].1);
        eprintln!(
            "seconds to target: {base_name} {bs:.3}, KAISA {ks:.3} ({:.0}% less wall time)\n",
            100.0 * (bs - ks) / bs.max(1e-9)
        );
    }
    println!();
}

/// Figure 5: validation curves, baseline optimizer vs KAISA, for the ResNet
/// (a), Mask R-CNN (b) and U-Net (c) analogues.
fn fig5() {
    println!("Figure 5 — convergence curves, baseline optimizer vs KAISA\n");
    let base = resnet_mini((110, 20, 21), None);
    let kfac = resnet_mini((110, 20, 21), Some(kfac_4_8()));
    fig5_panel("(a) ResNet", "baseline", "val accuracy", 0.9, &curve(&base), &curve(&kfac));
    fig5_roi_head();
    let train = BlobSegmentation::generate(192, 16, 0.7, 113);
    let val = BlobSegmentation::generate(48, 16, 0.7, 114);
    let run = |kfac: Option<KfacConfig>| {
        let cfg = TrainConfig {
            epochs: 14,
            local_batch: 8,
            schedule: LrSchedule::Constant { lr: 8e-4 },
            kfac,
            seed: 24,
            eval_batch: 16,
            ..Default::default()
        };
        let r = train_distributed(
            2,
            || UNetMini::new(1, 4, &mut Rng::seed_from_u64(25)),
            Adam::new,
            &train,
            &val,
            &cfg,
        );
        curve(&r)
    };
    fig5_panel("(c) U-Net", "baseline", "val DSC", 0.8, &run(None), &run(Some(kfac_4_8())));
}

/// Figure 5(b): a shared-FC detection head on synthetic pooled features;
/// the metric is classification accuracy (the bbox-mAP proxy).
fn fig5_roi_head() {
    let mut rng = Rng::seed_from_u64(112);
    let (feat, classes) = (16usize, 4usize);
    let centers = Matrix::randn(classes, feat, 1.0, &mut rng);
    let make_set = |n: usize, rng: &mut Rng| {
        let mut x = Matrix::zeros(n, feat);
        let mut cls = Vec::new();
        let mut boxes = Matrix::zeros(n, 4);
        for i in 0..n {
            let c = i % classes;
            cls.push(c);
            for j in 0..feat {
                x.set(i, j, centers.get(c, j) + 1.3 * rng.normal());
            }
            for j in 0..4 {
                boxes.set(i, j, 0.5 * centers.get(c, j) + 0.05 * rng.normal());
            }
        }
        (x, RoiTargets { classes: cls, boxes })
    };
    let (train_x, train_y) = make_set(512, &mut rng);
    let (val_x, val_y) = make_set(128, &mut rng);

    let run = |kfac_cfg: Option<KfacConfig>| -> Curve {
        let comm = ThreadComm::world(1).remove(0);
        let mut model = RoiHeadMini::new(feat, 24, classes, &mut Rng::seed_from_u64(23));
        let mut opt = Sgd::with_momentum(0.9);
        let mut kfac = kfac_cfg.map(|c| Kfac::new(c, &mut model, &comm));
        let start = Instant::now();
        let mut curve = Vec::new();
        for _ in 0..16 {
            for lo in (0..512).step_by(32) {
                let hi = lo + 32;
                let x = train_x.rows_slice(lo, hi);
                let y = RoiTargets {
                    classes: train_y.classes[lo..hi].to_vec(),
                    boxes: train_y.boxes.rows_slice(lo, hi),
                };
                if let Some(kfac) = &kfac {
                    kfac.prepare(&mut model);
                }
                model.zero_grad();
                let _ = model.forward_backward(&x, &y);
                if let Some(kfac) = &mut kfac {
                    kfac.step(&mut model, &comm, 0.004);
                }
                opt.step_model(&mut model, 0.004);
            }
            curve.push((model.evaluate(&val_x, &val_y).metric, start.elapsed().as_secs_f64()));
        }
        curve
    };
    fig5_panel(
        "(b) Mask R-CNN ROI head",
        "SGD",
        "cls acc",
        0.9,
        &run(None),
        &run(Some(kfac_4_8())),
    );
}

/// How a quantity moved between the first and the last row of a sweep.
fn direction<T: Ord>(first: T, last: T) -> &'static str {
    match last.cmp(&first) {
        std::cmp::Ordering::Greater => "rises",
        std::cmp::Ordering::Less => "falls",
        std::cmp::Ordering::Equal => "stays flat",
    }
}

/// How a sweep's series moves from its first row to its last: one
/// direction, or, when its minimum or maximum lies inside the sweep, to
/// that turning point and on from there.
fn trend(fracs: &[f64], values: &[u64], unit: &str) -> String {
    let n = values.len();
    let (first, last) = (values[0], values[n - 1]);
    let argmin = (0..n).min_by_key(|&i| values[i]).expect("a sweep has rows");
    let argmax = (0..n).max_by_key(|&i| values[i]).expect("a sweep has rows");
    match [argmin, argmax].into_iter().find(|&i| 0 < i && i < n - 1) {
        Some(i) => format!(
            "{} to its {} at frac {:.3} ({first} -> {} {unit}), then {} (-> {last} {unit})",
            direction(first, values[i]),
            if i == argmin { "minimum" } else { "maximum" },
            fracs[i],
            values[i],
            direction(values[i], last),
        ),
        None => format!("{} ({first} -> {last} {unit})", direction(first, last)),
    }
}

/// Figure 6: iteration time and K-FAC memory across `grad_worker_frac`,
/// simulated on 64 V100s for the paper's six models, plus a live sweep on
/// 8 thread ranks.
fn fig6() {
    println!("Figure 6 — iteration time and K-FAC memory overhead vs grad_worker_frac");
    println!("fracs: {:?}\n", sim::FIG6_FRACS);
    println!("== Simulated (64 x V100, true layer inventories) ==\n");
    let rows = sim::fig6();
    for model in ["ResNet-18", "ResNet-50", "ResNet-101", "ResNet-152", "Mask R-CNN", "BERT-Large"]
    {
        let series: Vec<&sim::Fig6Row> = rows.iter().filter(|r| r.model == model).collect();
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

    println!("== Live validation (8 thread ranks, ResNetMini) ==\n");
    let dataset = PatternImages::generate(256, 3, 12, 4, 0.3, 120);
    let fracs = [1.0 / 8.0, 0.25, 0.5, 1.0];
    let (mut table, mut timing, mut rank0) = (Vec::new(), Vec::new(), Vec::new());
    for &frac in &fracs {
        let run =
            kfac_ranks(8, &dataset, (4, 3, 1), live_resnet, &live_kfac(frac), |comm, kfac, s| {
                let meter = comm.meter_snapshot();
                let tags = [CommTag::FactorComm, CommTag::EigComm, CommTag::GradComm];
                let factors = kfac.memory_meter().peak(MemoryCategory::Factors);
                (
                    s,
                    kfac.memory_bytes(),
                    kfac.comm_bytes(),
                    factors,
                    tags.map(|t| meter.tag_bytes(t)),
                )
            });
        let (iter_s, mem, sent, _, tag_bytes) = &run[0];
        let max_mem = run.iter().map(|r| r.1).max().expect("a world has ranks");
        let peak_factors = run.iter().map(|r| r.3).max().expect("a world has ranks");
        rank0.push(((mem / 1024) as u64, *sent));
        let mut row = vec![
            format!("{frac:.3}"),
            (mem / 1024).to_string(),
            (max_mem / 1024).to_string(),
            sent.to_string(),
            (peak_factors / 1024).to_string(),
        ];
        row.extend(tag_bytes.iter().map(u64::to_string));
        table.push(row);
        timing.push(vec![format!("{frac:.3}"), format!("{:.1}", iter_s * 1e3)]);
    }
    let header = [
        "frac",
        "rank0 K-FAC KiB",
        "max K-FAC KiB",
        "rank0 sent B",
        "peak factor KiB",
        "factor B",
        "eig B",
        "grad B",
    ];
    println!("{}", render_table(&header, &table));
    eprintln!("{}", render_table(&["frac", "iter ms"], &timing));
    let (mem_kib, sent): (Vec<u64>, Vec<u64>) = rank0.into_iter().unzip();
    println!(
        "(from frac {:.3} to {:.3}, rank-0 K-FAC memory {} and rank-0 send volume {};",
        fracs[0],
        fracs[fracs.len() - 1],
        trend(&fracs, &mem_kib, "KiB"),
        trend(&fracs, &sent, "B"),
    );
    if sent[sent.len() - 1] > sent[0] {
        println!(
            " at this sweep's inv_update_freq(4), COMM-OPT's eigendecomposition broadcast to \
             every rank outweighs the gradient broadcast it removes; Figure 6's falling volume \
             assumes Table 2's longer intervals;"
        );
    } else {
        println!(" memory bought with send volume — the Figure 6 tradeoff;");
    }
    println!(" the factor column is the MemoryMeter-measured peak, the same at every frac;");
    println!(" factor/eig/grad B are the world meter's bytes under FactorComm/EigComm/GradComm)");
}

/// Figure 7: per-stage time inside `KFAC.step()` across `grad_worker_frac`,
/// simulated for ResNet-50 on 64 V100s and timed live on 8 thread ranks in
/// both completion orders (serial and pipelined).
fn fig7() {
    println!("Figure 7 — time per KFAC.step() section vs grad_worker_frac\n");
    println!("== Simulated (ResNet-50, 64 x V100), ms per average iteration ==\n");
    let rows = sim::fig7();
    let table: Vec<Vec<String>> = KFAC_STAGES
        .iter()
        .map(|&stage| {
            let mut row = vec![stage.to_string()];
            for &frac in &sim::FIG6_FRACS {
                let v = rows
                    .iter()
                    .find(|r| r.stage == stage && (r.frac - frac).abs() < 1e-12)
                    .map_or(0.0, |r| r.seconds);
                row.push(format!("{:.2}", v * 1e3));
            }
            row
        })
        .collect();
    println!(
        "{}",
        render_sweep("stage", sim::FIG6_FRACS.iter().map(|f| format!("{f:.3}")), &table)
    );
    println!("(gradient broadcast falls to 0 at frac=1 while preconditioning rises — Figure 7's tradeoff)\n");

    let dataset = GaussianBlobs::generate(512, 32, 4, 0.4, 130);
    let run = |frac: f64, pipelined: bool| {
        let cfg = KfacConfig::builder()
            .grad_worker_frac(frac)
            .factor_update_freq(5)
            .inv_update_freq(10)
            .pipelined(pipelined)
            .build();
        let model = || Mlp::new(&[32, 64, 48, 4], &mut Rng::seed_from_u64(31));
        kfac_ranks(8, &dataset, (8, 3, 3), model, &cfg, |comm, kfac, _| {
            (kfac.stage_times().clone(), comm.meter_snapshot())
        })
        .swap_remove(0)
    };
    let fracs = [1.0 / 8.0, 0.5, 1.0];
    let mut stage_table: Vec<Vec<String>> =
        KFAC_STAGES.iter().map(|s| vec![s.to_string()]).collect();
    let mut totals = vec![vec!["serial".to_string()], vec!["pipelined".to_string()]];
    let mut sample = None;
    for &frac in &fracs {
        let (serial, _) = run(frac, false);
        let (pipelined, meter) = run(frac, true);
        for (row, avg) in stage_table.iter_mut().zip(pipelined.averages()) {
            row.push(format!("{:.3}", avg * 1e3));
        }
        for (row, times) in totals.iter_mut().zip([&serial, &pipelined]) {
            row.push(format!("{:.3}", times.total_seconds() / times.steps.max(1) as f64 * 1e3));
        }
        if (frac - 0.5).abs() < 1e-12 {
            sample = Some((pipelined, meter));
        }
    }
    let (times, meter) = sample.expect("the sweep has frac 0.5");
    println!("== Metered K-FAC traffic by issuing stage (live MLP on 8 thread ranks, frac 0.5, pipelined, world total) ==\n");
    let rows: Vec<Vec<String>> = CommTag::ALL
        .iter()
        .filter(|&&tag| meter.tag_calls(tag) > 0)
        .map(|&tag| {
            vec![
                format!("{tag:?}"),
                meter.tag_calls(tag).to_string(),
                meter.tag_bytes(tag).to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["stage tag", "collectives", "bytes"], &rows));

    eprintln!("== Live stage timers (MLP on 8 thread ranks), ms per step ==\n");
    let columns = || fracs.iter().map(|f| format!("frac {f:.3}"));
    eprintln!("{}", render_sweep("stage (pipelined)", columns(), &stage_table));
    eprintln!("{}", render_sweep("KFAC.step total", columns(), &totals));
    eprintln!("(thread-rank timers share host cores, so wall-clock overlap is bounded)\n");
    eprintln!("== Per-layer stage breakdown (frac 0.5, pipelined), ms per step ==\n");
    eprintln!("{}", times.layer_report());
}

/// Figure 8: projected end-to-end speedup over the baseline optimizer for
/// MEM-OPT / HYBRID-OPT / COMM-OPT at 8–128 simulated A100s.
fn fig8() {
    println!("Figure 8 — projected end-to-end speedup on DGX-A100 nodes\n");
    let rows = sim::fig8();
    for (app, baseline) in [
        ("ResNet-50", "momentum SGD, 90 vs 55 epochs"),
        ("BERT-Large", "Fused LAMB, 1563 vs 800 steps"),
    ] {
        println!("--- {app} (baseline: {baseline}) ---");
        let mut table = Vec::new();
        for strategy in ["MEM-OPT", "HYBRID-OPT", "COMM-OPT"] {
            let series: Vec<f64> = sim::FIG8_SCALES
                .iter()
                .map(|&s| {
                    rows.iter()
                        .find(|r| r.app == app && r.strategy == strategy && r.scale == s)
                        .map_or(f64::NAN, |r| r.speedup)
                })
                .collect();
            let mut row = vec![strategy.to_string()];
            row.extend(series.iter().map(|v| format!("{v:.2}x")));
            row.push(sparkline(&series));
            table.push(row);
        }
        let columns = sim::FIG8_SCALES.iter().map(|s| format!("{s} GPUs"));
        println!("{}\n", render_sweep("strategy", columns.chain(["trend".to_string()]), &table));
    }
    println!("Shape checks (paper Section 5.6):");
    println!(" * COMM-OPT's speedup margin over MEM-OPT grows with scale;");
    println!(" * HYBRID-OPT tracks COMM-OPT while caching half the eigendecompositions;");
    println!(" * BERT-Large speedups exceed ResNet-50's and are strategy-insensitive.");
}

/// Tables 1 and 2: the paper's baseline/hardware summary and
/// hyperparameters, as encoded in this reproduction.
fn tables() {
    println!("Table 1 — baseline performance and hardware summary\n");
    let rows: Vec<Vec<String>> = sim::table1().iter().map(|r| r.to_vec()).collect();
    println!("{}", render_table(&["App", "Ref", "Baseline", "GPU", "# GPUs"], &rows));
    println!();
    println!("Table 2 — hyperparameters per application\n");
    let rows: Vec<Vec<String>> = sim::table2().iter().map(|r| r.to_vec()).collect();
    println!("{}", render_table(&["App", "BS", "LR", "WU", "K_freq", "F_freq"], &rows));
    println!("grad_worker_frac = 1 and damping = 0.003 for all cases (paper Table 2).");
}

/// Table 3: BERT pretraining, LAMB to convergence vs KAISA at reduced
/// iteration budgets. The paper matches LAMB's 90.8 F1 (1,536 iterations)
/// in 800 KAISA iterations. Here: BertMini on a synthetic masked-token
/// task; each optimizer has its own tuned schedule, and KAISA tolerates a
/// much larger learning rate (Section 2).
fn table3() {
    println!("Table 3 — BERT performance comparison: KAISA vs LAMB");
    println!("(paper: SQuAD F1 after phase-2 pretraining; here: masked-token accuracy)\n");
    let rules = SequenceRules { vocab: 24, mult: 1, offset: 5, rule_probability: 0.95 };
    let train = MaskedTokenTask::generate(512, 12, rules, 0.25, 140);
    let val = MaskedTokenTask::generate(128, 12, rules, 0.25, 141);
    let run = |epochs: usize, lr: f32, warmup: usize, total: usize, kfac: Option<KfacConfig>| {
        let model_cfg = BertMiniConfig {
            vocab: 24,
            d_model: 24,
            heads: 4,
            layers: 2,
            ffn_dim: 48,
            max_seq: 12,
        };
        let cfg = TrainConfig {
            epochs,
            local_batch: 8,
            grad_accum: 2,
            schedule: LrSchedule::WarmupPoly { lr, warmup, total, power: 1.0 },
            kfac,
            seed: 40,
            eval_batch: 32,
            ..Default::default()
        };
        let model = || BertMini::new(model_cfg, &mut Rng::seed_from_u64(41));
        train_distributed(2, model, Lamb::new, &train, &val, &cfg)
    };
    let lamb = run(60, 5e-3, 30, 1200, None);
    let lamb_metric = lamb.best_metric();
    let mut rows = vec![vec![
        "LAMB".to_string(),
        format!("{lamb_metric:.3}"),
        lamb.iterations.to_string(),
        "-".to_string(),
    ]];
    let mut timing =
        vec![vec!["LAMB".to_string(), format!("{:.1}", lamb.total_seconds), "1.00".to_string()]];
    let kfac_cfg = || KfacConfig::builder().factor_update_freq(2).inv_update_freq(10).build();
    for epochs in [30usize, 24, 20, 15] {
        let r = run(epochs, 3e-2, 8, 600, Some(kfac_cfg()));
        let label = format!("KAISA ({} iters)", r.iterations);
        let matches = if r.best_metric() >= lamb_metric { "yes" } else { "no" };
        rows.push(vec![
            label.clone(),
            format!("{:.3}", r.best_metric()),
            r.iterations.to_string(),
            matches.to_string(),
        ]);
        timing.push(vec![
            label,
            format!("{:.1}", r.total_seconds),
            format!("{:.2}", r.total_seconds / lamb.total_seconds),
        ]);
    }
    println!("{}", render_table(&["optimizer", "masked acc", "iterations", "≥ LAMB?"], &rows));
    eprintln!("{}", render_table(&["optimizer", "wall s", "time ratio"], &timing));
    println!("Shape check (paper Table 3): KAISA matches the LAMB baseline metric at");
    println!("roughly half the iterations (paper: 800 of 1536, with 36.3% less time).");
}

/// Table 4: convergence under a fixed memory budget — the largest local
/// batch each optimizer/strategy fits and the projected time to
/// convergence.
fn table4() {
    println!("Table 4 — time to convergence under a fixed per-GPU memory budget");
    println!("(ResNet-50 on 64 x V100-16GB FP32; BERT-Large phase 2 on 8 x A100-40GB FP16)\n");
    let table: Vec<Vec<String>> = sim::table4()
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                r.optimizer.clone(),
                r.max_local_batch.to_string(),
                r.global_batch.to_string(),
                format!("{:.1}", r.iter_seconds * 1e3),
                format!("{:.0}", r.time_to_convergence_min),
            ]
        })
        .collect();
    let header = ["app", "optimizer", "max local BS", "global BS", "iter ms", "T_conv min"];
    println!("{}", render_table(&header, &table));
    println!("\nShape checks (paper Section 5.4):");
    println!(" * SGD fits the largest local batch (no K-FAC state);");
    println!(" * KAISA converges in fewer epochs/steps, so its projected time to");
    println!("   convergence beats the baseline despite costlier iterations;");
    println!(" * HYBRID-OPT (frac=1/2) matches or beats MEM-OPT's time while");
    println!("   COMM-OPT (frac=1) needs the most memory headroom.");
}

/// Table 5: per-GPU training memory, SGD vs K-FAC at the minimum
/// (`frac = 1/64`) and maximum (`frac = 1`) gradient-worker counts, plus
/// the live per-rank `MemoryMeter` peaks of ResNetMini on 8 thread ranks.
fn table5() {
    println!("Table 5 — simulated per-GPU memory on 64 V100s (MB)\n");
    let header = ["Model", "Precision", "SGD Abs.", "K-FAC Min", "Δ", "K-FAC Max", "Δ"];
    let table: Vec<Vec<String>> = sim::table5()
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
    println!("{}", render_table(&header, &table));
    println!("\nPaper's measured values for comparison (Table 5):");
    let paper = [
        ["ResNet-18", "FP32", "2454", "2838", "16.7%", "3260", "32.8%"],
        ["ResNet-50", "FP32", "4762", "5396", "13.3%", "6608", "38.8%"],
        ["ResNet-101", "FP32", "6313", "7463", "18.2%", "8755", "38.7%"],
        ["ResNet-152", "FP32", "6620", "8204", "23.9%", "9092", "37.3%"],
        ["Mask R-CNN", "FP32", "6553", "6650", "1.5%", "6743", "2.9%"],
        ["BERT-Large", "FP16", "8254", "9555", "15.8%", "12038", "45.8%"],
    ];
    let paper: Vec<Vec<String>> = paper.iter().map(|r| r.map(String::from).to_vec()).collect();
    println!("{}", render_table(&header, &paper));
    println!("\nShape checks: K-FAC overhead grows with frac for every model; the");
    println!("max/min overhead ratio is 1.5-2.9x; Mask R-CNN's overhead is by far");
    println!("the smallest (only the ROI heads are preconditioned).");

    println!("\n== Live per-rank MemoryMeter (8 thread ranks, ResNetMini) ==\n");
    let dataset = PatternImages::generate(128, 3, 12, 4, 0.3, 121);
    let meters = kfac_ranks(8, &dataset, (4, 2, 1), live_resnet, &live_kfac(0.25), |_, kfac, _| {
        kfac.memory_meter().clone()
    });
    let table: Vec<Vec<String>> = MemoryCategory::ALL
        .iter()
        .map(|&cat| {
            let peak = meters.iter().map(|m| m.peak(cat)).max().unwrap_or(0);
            vec![cat.name().to_string(), peak.to_string()]
        })
        .collect();
    println!("{}", render_table(&["category", "peak B"], &table));
    println!("(peaks are the max over ranks; every rank holds every factor)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn sparkline_range() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    /// No artefact ships without its pinned exact block, and no pinned
    /// block outlives its artefact.
    #[test]
    fn every_artefact_has_a_pinned_block() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/repro");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        let mut names: Vec<String> = ARTEFACTS.iter().map(|(n, _)| format!("{n}.txt")).collect();
        files.sort();
        names.sort();
        assert_eq!(files, names);
    }
}

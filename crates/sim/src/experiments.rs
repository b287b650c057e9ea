//! Data generators for every simulated table and figure of the paper's
//! evaluation (Section 5). The convergence experiments (Figures 1 and 5,
//! Table 3) run live in `kaisa-bench`'s `repro` driver, which also prints
//! these; everything that required the 64-GPU / 128-GPU clusters is
//! regenerated here from the cost model.

use crate::device::ClusterSpec;
use crate::inventory::ModelInventory;
use crate::strategy_sim::{IterationBreakdown, SimParams, Simulator};

/// The `grad_worker_frac` sweep of Figure 6 (64 workers).
pub const FIG6_FRACS: [f64; 7] =
    [1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0, 1.0];

/// One point of Figure 6: iteration time and K-FAC memory overhead.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Model name.
    pub model: &'static str,
    /// `grad_worker_frac`.
    pub frac: f64,
    /// Average seconds per optimizer iteration.
    pub iter_seconds: f64,
    /// K-FAC memory overhead on the heaviest rank, MB.
    pub kfac_overhead_mb: f64,
}

fn fig6_params(model: ModelInventory, frac: f64) -> SimParams {
    let cluster = ClusterSpec::frontera(64);
    match model.name {
        "BERT-Large" => {
            let mut p = SimParams::baseline(model, cluster, 8).with_kfac(frac, 10, 100);
            p.grad_accum = 64; // global batch 32768 via accumulation
            p.half_training = true;
            p.half_factors = true;
            p.optimizer_state_bytes = 8;
            p
        }
        "Mask R-CNN" => {
            // Global batch 64 on 64 GPUs → local batch 1, FP32.
            SimParams::baseline(model, cluster, 1).with_kfac(frac, 50, 500)
        }
        "ResNet-152" => {
            // Paper: local batch lowered to 24 for ResNet-152.
            SimParams::baseline(model, cluster, 24).with_kfac(frac, 50, 500)
        }
        _ => SimParams::baseline(model, cluster, 32).with_kfac(frac, 50, 500),
    }
}

/// Figure 6: iteration time and memory overhead across `grad_worker_frac`
/// for ResNet-{18,50,101,152}, Mask R-CNN, and BERT-Large on 64 V100s.
pub fn fig6() -> Vec<Fig6Row> {
    let models: Vec<ModelInventory> = vec![
        ModelInventory::resnet18(),
        ModelInventory::resnet50(),
        ModelInventory::resnet101(),
        ModelInventory::resnet152(),
        ModelInventory::mask_rcnn_roi_heads(),
        ModelInventory::bert_large(512),
    ];
    let mut rows = Vec::new();
    for model in models {
        for &frac in &FIG6_FRACS {
            let sim = Simulator::new(fig6_params(model.clone(), frac));
            let iter = sim.iteration_breakdown();
            let mem = sim.memory_breakdown();
            rows.push(Fig6Row {
                model: model.name,
                frac,
                iter_seconds: iter.total(),
                kfac_overhead_mb: mem.kfac_overhead() as f64 / (1 << 20) as f64,
            });
        }
    }
    rows
}

/// One stage measurement of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// `grad_worker_frac`.
    pub frac: f64,
    /// Stage name (Figure 7 legend).
    pub stage: &'static str,
    /// Average seconds per `KFAC.step()` call spent in this stage.
    pub seconds: f64,
}

/// Figure 7: per-stage time inside `KFAC.step()` for ResNet-50 on 64 V100s
/// across `grad_worker_frac`.
pub fn fig7() -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for &frac in &FIG6_FRACS {
        let sim = Simulator::new(fig6_params(ModelInventory::resnet50(), frac));
        let b: IterationBreakdown = sim.iteration_breakdown();
        for (stage, seconds) in [
            ("compute factors", b.factor_compute),
            ("communicate factors", b.factor_comm),
            ("compute eigendecomp", b.eig_compute),
            ("communicate eigendecomp", b.eig_comm),
            ("precondition gradient", b.precondition),
            ("communicate gradient", b.grad_bcast),
            ("scale and update grads", b.scale),
        ] {
            rows.push(Fig7Row { frac, stage, seconds });
        }
    }
    rows
}

/// One point of Figure 8: projected end-to-end speedup over the baseline.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Application ("ResNet-50" or "BERT-Large").
    pub app: &'static str,
    /// GPU count.
    pub scale: usize,
    /// Strategy name ("MEM-OPT", "HYBRID-OPT", "COMM-OPT").
    pub strategy: &'static str,
    /// Projected end-to-end speedup over SGD (ResNet) / LAMB (BERT).
    pub speedup: f64,
}

/// Figure 8 scales (A100 GPUs).
pub const FIG8_SCALES: [usize; 5] = [8, 16, 32, 64, 128];

/// Figure 8: projected end-to-end speedup for the KAISA strategies on A100s.
///
/// ResNet-50: 90 SGD epochs vs. 55 KAISA epochs, weak scaling at fixed
/// per-GPU batch 128. BERT-Large phase 2: 1563 LAMB steps vs. 800 KAISA
/// steps at global batch 32768 held by gradient accumulation, factors in
/// FP16.
pub fn fig8() -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    let strategies: [(&'static str, f64); 3] = [
        ("MEM-OPT", 0.0), // resolved per scale to 1/world
        ("HYBRID-OPT", 0.5),
        ("COMM-OPT", 1.0),
    ];

    for &scale in &FIG8_SCALES {
        let cluster = ClusterSpec::theta_gpu(scale);

        // --- ResNet-50: weak scaling at fixed per-GPU batch 128 (the
        // paper's A100 runs keep per-GPU work constant; the MEM-OPT
        // broadcast grows as O(log world) so its relative cost rises with
        // scale, which is what separates the strategies in Figure 8a).
        let local_batch = 128usize;
        let mut base = SimParams::baseline(ModelInventory::resnet50(), cluster, local_batch);
        base.half_training = true;
        let t_sgd = Simulator::new(base.clone()).iteration_breakdown().total();
        for (name, frac) in strategies {
            let frac = if frac == 0.0 { 1.0 / scale as f64 } else { frac };
            let mut p = base.clone().with_kfac(frac, 50, 500);
            p.half_factors = true;
            let t_kfac = Simulator::new(p).iteration_breakdown().total();
            rows.push(Fig8Row {
                app: "ResNet-50",
                scale,
                strategy: name,
                speedup: (90.0 * t_sgd) / (55.0 * t_kfac),
            });
        }

        // --- BERT-Large phase 2: fixed global batch 32768 held by gradient
        // accumulation; accumulation depth shrinks with scale.
        let local = 8usize;
        let accum = (32_768 / (local * scale)).max(1);
        let mut base = SimParams::baseline(ModelInventory::bert_large(512), cluster, local);
        base.grad_accum = accum;
        base.half_training = true;
        base.optimizer_state_bytes = 8;
        let t_lamb = Simulator::new(base.clone()).iteration_breakdown().total();
        for (name, frac) in strategies {
            let frac = if frac == 0.0 { 1.0 / scale as f64 } else { frac };
            let mut p = base.clone().with_kfac(frac, 10, 100);
            p.half_factors = true;
            let t_kfac = Simulator::new(p).iteration_breakdown().total();
            rows.push(Fig8Row {
                app: "BERT-Large",
                scale,
                strategy: name,
                speedup: (1563.0 * t_lamb) / (800.0 * t_kfac),
            });
        }
    }
    rows
}

/// One row of Table 5: per-GPU memory for SGD vs K-FAC min/max.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Model name.
    pub model: &'static str,
    /// Training precision label ("FP32"/"FP16").
    pub precision: &'static str,
    /// SGD absolute memory, MB.
    pub sgd_mb: f64,
    /// K-FAC absolute memory at `frac = 1/64`, MB.
    pub kfac_min_mb: f64,
    /// Percent increase of the minimum over SGD.
    pub min_delta_pct: f64,
    /// K-FAC absolute memory at `frac = 1`, MB.
    pub kfac_max_mb: f64,
    /// Percent increase of the maximum over SGD.
    pub max_delta_pct: f64,
}

/// Table 5: per-GPU training memory on 64 V100s.
pub fn table5() -> Vec<Table5Row> {
    let mut rows = Vec::new();
    let models: Vec<ModelInventory> = vec![
        ModelInventory::resnet18(),
        ModelInventory::resnet50(),
        ModelInventory::resnet101(),
        ModelInventory::resnet152(),
        ModelInventory::mask_rcnn_roi_heads(),
        ModelInventory::bert_large(512),
    ];
    for model in models {
        let precision = if model.name == "BERT-Large" { "FP16" } else { "FP32" };
        let mut base = fig6_params(model.clone(), 1.0);
        base.kfac_enabled = false;
        let sgd = Simulator::new(base).memory_breakdown().absolute() as f64 / (1 << 20) as f64;
        let min = Simulator::new(fig6_params(model.clone(), 1.0 / 64.0))
            .memory_breakdown()
            .absolute() as f64
            / (1 << 20) as f64;
        let max = Simulator::new(fig6_params(model.clone(), 1.0)).memory_breakdown().absolute()
            as f64
            / (1 << 20) as f64;
        rows.push(Table5Row {
            model: model.name,
            precision,
            sgd_mb: sgd,
            kfac_min_mb: min,
            min_delta_pct: (min / sgd - 1.0) * 100.0,
            kfac_max_mb: max,
            max_delta_pct: (max / sgd - 1.0) * 100.0,
        });
    }
    rows
}

/// One row of Table 4: fixed-memory-budget configurations.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Application.
    pub app: &'static str,
    /// Optimizer / strategy label.
    pub optimizer: String,
    /// Largest local batch size that fits the device memory.
    pub max_local_batch: usize,
    /// Global batch size at that local batch.
    pub global_batch: usize,
    /// Simulated seconds per iteration at the max batch.
    pub iter_seconds: f64,
    /// Projected minutes to convergence (paper's epochs/steps ratios).
    pub time_to_convergence_min: f64,
}

/// Find the largest local batch whose simulated memory fits the device.
fn max_batch(mut params: SimParams) -> usize {
    let budget = params.cluster.gpu.mem_bytes as usize;
    let mut best = 0usize;
    for batch in 1..=512 {
        params.local_batch = batch;
        let mem = Simulator::new(params.clone()).memory_breakdown().absolute();
        if mem <= budget {
            best = batch;
        } else {
            break;
        }
    }
    best
}

/// Table 4: convergence under a fixed memory budget. ResNet-50 on 64 V100s
/// (SGD 90 epochs to target vs KAISA 48), BERT-Large phase 2 on 8 A100s
/// (LAMB 2084 steps for 3 epochs vs KAISA 800 steps).
pub fn table4() -> Vec<Table4Row> {
    let mut rows = Vec::new();

    // ResNet-50 on 64 V100s, FP32 (as in §5.4).
    let cluster = ClusterSpec::frontera(64);
    let imagenet = 1_281_167usize;
    let configs: [(&str, Option<f64>, f64); 3] = [
        ("momentum SGD", None, 90.0),
        ("KAISA frac=1/64 (MEM-OPT)", Some(1.0 / 64.0), 47.0),
        ("KAISA frac=1/2 (HYBRID-OPT)", Some(0.5), 48.0),
    ];
    for (label, frac, epochs) in configs {
        let mut params = SimParams::baseline(ModelInventory::resnet50(), cluster, 1);
        if let Some(frac) = frac {
            params = params.with_kfac(frac, 20, 200);
        }
        let batch = max_batch(params.clone());
        params.local_batch = batch;
        let iter = Simulator::new(params).iteration_breakdown().total();
        let iters_per_epoch = (imagenet as f64 / (batch * 64) as f64).ceil();
        rows.push(Table4Row {
            app: "ResNet-50",
            optimizer: label.to_string(),
            max_local_batch: batch,
            global_batch: batch * 64,
            iter_seconds: iter,
            time_to_convergence_min: epochs * iters_per_epoch * iter / 60.0,
        });
    }

    // BERT-Large phase 2 on 8 A100s, FP16; global batch fixed by
    // accumulation, so "max batch" trades accumulation depth.
    let cluster = ClusterSpec::theta_gpu(8);
    let configs: [(&str, Option<f64>, f64, usize); 3] = [
        ("Fused LAMB", None, 2084.0, 24_576),
        ("KAISA frac=1/2", Some(0.5), 800.0, 32_768),
        ("KAISA frac=1", Some(1.0), 800.0, 32_768),
    ];
    for (label, frac, steps, global) in configs {
        let mut params = SimParams::baseline(ModelInventory::bert_large(512), cluster, 1);
        params.half_training = true;
        params.optimizer_state_bytes = 8;
        if let Some(frac) = frac {
            params = params.with_kfac(frac, 10, 100);
            params.half_factors = true;
        }
        let batch = max_batch(params.clone()).min(16);
        params.local_batch = batch;
        params.grad_accum = (global / (batch * 8)).max(1);
        let iter = Simulator::new(params).iteration_breakdown().total();
        rows.push(Table4Row {
            app: "BERT-Large",
            optimizer: label.to_string(),
            max_local_batch: batch,
            global_batch: global,
            iter_seconds: iter,
            time_to_convergence_min: steps * iter / 60.0,
        });
    }
    rows
}

/// Static Table 1 (baselines and hardware) as printable rows.
pub fn table1() -> Vec<[String; 5]> {
    let rows = [
        ["ResNet-50", "MLPerf", "75.9% val acc", "V100/A100", "64 / 8"],
        ["Mask R-CNN", "MLPerf", "0.377 bbox mAP, 0.342 segm mAP", "V100", "32-64"],
        ["U-Net", "brain-seg ref", "91.0% val DSC", "A100", "4"],
        ["BERT-Large", "NVIDIA ref", "90.8 SQuAD v1.1 F1", "A100", "8"],
    ];
    rows.iter().map(|r| r.map(String::from)).collect()
}

/// Static Table 2 (hyperparameters) as printable rows.
pub fn table2() -> Vec<[String; 6]> {
    let rows = [
        ["ResNet-50", "2048", "0.8", "3130", "500", "50"],
        ["Mask R-CNN", "64", "8e-2", "800", "500", "50"],
        ["U-Net", "64", "4e-4", "500", "200", "20"],
        ["BERT-Large", "65536", "5e-5", "103", "100", "10"],
    ];
    rows.iter().map(|r| r.map(String::from)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shapes() {
        let rows = fig6();
        assert_eq!(rows.len(), 6 * 7);
        // ResNet-50: time falls, memory rises across the frac sweep.
        let rn50: Vec<&Fig6Row> = rows.iter().filter(|r| r.model == "ResNet-50").collect();
        assert!(rn50.first().unwrap().iter_seconds > rn50.last().unwrap().iter_seconds);
        assert!(rn50.first().unwrap().kfac_overhead_mb < rn50.last().unwrap().kfac_overhead_mb);
        // Memory overhead is monotone in frac for every model.
        for model in ["ResNet-18", "ResNet-101", "ResNet-152", "Mask R-CNN", "BERT-Large"] {
            let series: Vec<f64> =
                rows.iter().filter(|r| r.model == model).map(|r| r.kfac_overhead_mb).collect();
            for w in series.windows(2) {
                assert!(w[0] <= w[1] + 1e-9, "{model} memory not monotone");
            }
        }
    }

    #[test]
    fn fig7_gradient_comm_tradeoff() {
        let rows = fig7();
        let at = |frac: f64, stage: &str| {
            rows.iter().find(|r| (r.frac - frac).abs() < 1e-9 && r.stage == stage).unwrap().seconds
        };
        // Broadcast time decreases to zero as frac -> 1 (Figure 7's key
        // trend), while preconditioning time rises.
        assert!(at(1.0 / 64.0, "communicate gradient") > 0.0);
        assert_eq!(at(1.0, "communicate gradient"), 0.0);
        assert!(at(1.0, "precondition gradient") > at(1.0 / 64.0, "precondition gradient"));
        // Factor stages are frac-invariant.
        let f_lo = at(1.0 / 64.0, "communicate factors");
        let f_hi = at(1.0, "communicate factors");
        assert!((f_lo - f_hi).abs() < 1e-12);
    }

    #[test]
    fn fig8_scaling_trends() {
        let rows = fig8();
        // COMM-OPT speedup grows with scale for ResNet-50; MEM-OPT is flat
        // or declining relative to it (the Figure 8 contrast).
        let series = |app: &str, strat: &str| -> Vec<f64> {
            FIG8_SCALES
                .iter()
                .map(|&s| {
                    rows.iter()
                        .find(|r| r.app == app && r.strategy == strat && r.scale == s)
                        .unwrap()
                        .speedup
                })
                .collect()
        };
        let comm = series("ResNet-50", "COMM-OPT");
        let mem = series("ResNet-50", "MEM-OPT");
        assert!(
            comm.last().unwrap() - comm.first().unwrap()
                > mem.last().unwrap() - mem.first().unwrap(),
            "COMM-OPT must gain more with scale than MEM-OPT: {comm:?} vs {mem:?}"
        );
        // At the largest scale, COMM-OPT beats MEM-OPT for the
        // high-communication model, with HYBRID-OPT between them.
        let hybrid = series("ResNet-50", "HYBRID-OPT");
        assert!(comm.last().unwrap() > mem.last().unwrap());
        assert!(hybrid.last().unwrap() > mem.last().unwrap());
        assert!(*hybrid.last().unwrap() <= comm.last().unwrap() + 1e-9);
        // COMM-OPT and HYBRID-OPT stay profitable at every scale; MEM-OPT's
        // every-step broadcast erodes its margin at scale (the paper's
        // motivation for the tunable fraction) but stays near break-even.
        for r in &rows {
            match r.strategy {
                "MEM-OPT" => {
                    assert!(
                        r.speedup > 0.85,
                        "{} {} @{} = {}",
                        r.app,
                        r.strategy,
                        r.scale,
                        r.speedup
                    );
                }
                _ => {
                    assert!(
                        r.speedup > 1.0,
                        "{} {} @{} = {}",
                        r.app,
                        r.strategy,
                        r.scale,
                        r.speedup
                    );
                }
            }
        }
        // BERT: the low-communication model keeps near-identical speedups
        // across strategies (Figure 8b's flat panel).
        for &s in &FIG8_SCALES {
            let get = |strat: &str| {
                rows.iter()
                    .find(|r| r.app == "BERT-Large" && r.strategy == strat && r.scale == s)
                    .unwrap()
                    .speedup
            };
            let (m, c) = (get("MEM-OPT"), get("COMM-OPT"));
            assert!((m - c).abs() / c < 0.15, "BERT strategies should be close at {s}");
        }
    }

    #[test]
    fn table5_deltas_in_paper_band() {
        let rows = table5();
        for r in &rows {
            assert!(r.min_delta_pct > 0.0, "{}: K-FAC must cost memory", r.model);
            assert!(r.max_delta_pct > r.min_delta_pct, "{}", r.model);
            assert!(
                r.max_delta_pct < 120.0,
                "{}: delta {}% implausibly large",
                r.model,
                r.max_delta_pct
            );
        }
        // Mask R-CNN has by far the smallest overhead (paper: 1.5–2.9%).
        let mask = rows.iter().find(|r| r.model == "Mask R-CNN").unwrap();
        let rn50 = rows.iter().find(|r| r.model == "ResNet-50").unwrap();
        assert!(mask.max_delta_pct < rn50.min_delta_pct);
    }

    #[test]
    fn table4_kaisa_wins_under_memory_budget() {
        let rows = table4();
        let sgd = rows.iter().find(|r| r.optimizer.contains("SGD")).unwrap();
        let hybrid = rows.iter().find(|r| r.optimizer.contains("1/2 (HYBRID")).unwrap();
        assert!(
            hybrid.time_to_convergence_min < sgd.time_to_convergence_min,
            "KAISA ({:.0} min) must beat SGD ({:.0} min)",
            hybrid.time_to_convergence_min,
            sgd.time_to_convergence_min
        );
        let lamb = rows.iter().find(|r| r.optimizer.contains("LAMB")).unwrap();
        let bert_kaisa = rows.iter().find(|r| r.optimizer == "KAISA frac=1/2").unwrap();
        assert!(bert_kaisa.time_to_convergence_min < lamb.time_to_convergence_min);
        // SGD fits a larger batch than any K-FAC config (memory headroom).
        assert!(sgd.max_local_batch >= hybrid.max_local_batch);
    }

    #[test]
    fn static_tables_have_all_apps() {
        assert_eq!(table1().len(), 4);
        assert_eq!(table2().len(), 4);
    }
}

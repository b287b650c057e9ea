//! Gradient accumulation under K-FAC (paper Section 4.2): accumulating k
//! micro-batches must match one big batch, both for the gradients and for
//! the captured Kronecker-factor statistics, and KAISA's
//! accumulate-during-pass capture must hold memory constant in the number
//! of micro-batches.

use kaisa::comm::ThreadComm;
use kaisa::core::{Kfac, KfacConfig};
use kaisa::nn::models::Mlp;
use kaisa::nn::Model;
use kaisa::tensor::{Matrix, Rng};

fn toy() -> (Mlp, Matrix, Vec<usize>) {
    let mut rng = Rng::seed_from_u64(81);
    let model = Mlp::new(&[6, 10, 3], &mut rng);
    let x = Matrix::randn(32, 6, 1.0, &mut rng);
    let y: Vec<usize> = (0..32).map(|i| i % 3).collect();
    (model, x, y)
}

/// One K-FAC step over the batch split into `chunks` micro-batches; returns
/// the preconditioned gradients.
fn kfac_step_with_accum(model: &Mlp, x: &Matrix, y: &[usize], chunks: usize) -> Vec<f32> {
    let comm = ThreadComm::world(1).remove(0);
    let mut model = model.clone();
    let cfg = KfacConfig::builder().factor_update_freq(1).inv_update_freq(1).build();
    let mut kfac = Kfac::new(cfg, &mut model, &comm);
    kfac.prepare(&mut model);
    model.zero_grad();
    let rows = x.rows() / chunks;
    for c in 0..chunks {
        let xc = x.rows_slice(c * rows, (c + 1) * rows);
        let yc = y[c * rows..(c + 1) * rows].to_vec();
        let _ = model.forward_backward(&xc, &yc);
    }
    // Mean over micro-batches.
    let mut grads = model.grads_flat();
    for g in grads.iter_mut() {
        *g /= chunks as f32;
    }
    model.set_grads_flat(&grads);
    kfac.step(&mut model, &comm, 0.1);
    model.grads_flat()
}

#[test]
fn accumulated_step_matches_full_batch_step() {
    let (model, x, y) = toy();
    let full = kfac_step_with_accum(&model, &x, &y, 1);
    let accum2 = kfac_step_with_accum(&model, &x, &y, 2);
    let accum4 = kfac_step_with_accum(&model, &x, &y, 4);

    // Gradients of the mean loss agree exactly; the factors differ slightly
    // because E[aᵀa] over micro-batches is averaged per micro-batch (exactly
    // as kfac_pytorch does), so allow a small tolerance.
    let d2 = max_rel_diff(&full, &accum2);
    let d4 = max_rel_diff(&full, &accum4);
    assert!(d2 < 0.05, "accum=2 deviates by {d2}");
    assert!(d4 < 0.05, "accum=4 deviates by {d4}");
}

#[test]
fn accumulate_mode_memory_constant() {
    let (mut model, x, y) = toy();
    model.set_kfac_capture(true);
    let mut sizes = Vec::new();
    for step in 0..4 {
        let lo = step * 8;
        let xc = x.rows_slice(lo, lo + 8);
        let yc = y[lo..lo + 8].to_vec();
        let _ = model.forward_backward(&xc, &yc);
        let total: usize =
            model.kfac_layers().iter_mut().map(|l| l.capture_mut().memory_bytes()).sum();
        sizes.push(total);
    }
    assert_eq!(sizes[0], sizes[3], "KAISA capture memory must not grow: {sizes:?}");
}

#[test]
fn harness_grad_accum_with_kfac_converges() {
    use kaisa::data::GaussianBlobs;
    use kaisa::optim::{LrSchedule, Sgd};
    use kaisa::trainer::{train_distributed, TrainConfig};
    let (train, val) = GaussianBlobs::generate(320, 8, 4, 0.35, 83).split(64);
    let cfg = TrainConfig {
        epochs: 6,
        local_batch: 8,
        grad_accum: 4,
        schedule: LrSchedule::Constant { lr: 0.15 },
        kfac: Some(KfacConfig::builder().factor_update_freq(2).inv_update_freq(4).build()),
        seed: 9,
        ..Default::default()
    };
    let r = train_distributed(
        2,
        || Mlp::new(&[8, 16, 4], &mut Rng::seed_from_u64(17)),
        || Sgd::with_momentum(0.9),
        &train,
        &val,
        &cfg,
    );
    assert!(r.best_metric() > 0.9, "val acc {}", r.best_metric());
    // 256 train / (2 ranks x 8 x 4) = 4 steps/epoch.
    assert_eq!(r.iterations, 6 * 4);
}

fn max_rel_diff(a: &[f32], b: &[f32]) -> f32 {
    let scale = a.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-9);
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max) / scale
}

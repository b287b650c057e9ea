//! Convergence smoke tests for all four application analogues: K-FAC
//! preconditioning must preserve convergence (the paper's first research
//! question) on classification, detection-head, segmentation, and
//! masked-language tasks.

use kaisa::core::KfacConfig;
use kaisa::data::{BlobSegmentation, GaussianBlobs, MaskedTokenTask, PatternImages, SequenceRules};
use kaisa::nn::models::{
    BertMini, BertMiniConfig, Mlp, ResNetMini, ResNetMiniConfig, RoiHeadMini, RoiTargets,
};
use kaisa::nn::Model;
use kaisa::optim::{Adam, Lamb, LrSchedule, Sgd};
use kaisa::tensor::{Matrix, Rng};
use kaisa::trainer::{train_distributed, TrainConfig};

fn kfac_cfg() -> KfacConfig {
    KfacConfig::builder().factor_update_freq(2).inv_update_freq(8).build()
}

#[test]
fn mlp_classification_converges_with_kfac() {
    let (train, val) = GaussianBlobs::generate(320, 8, 4, 0.35, 61).split(64);
    let cfg = TrainConfig {
        epochs: 8,
        local_batch: 16,
        schedule: LrSchedule::Constant { lr: 0.15 },
        kfac: Some(kfac_cfg()),
        seed: 1,
        ..Default::default()
    };
    let r = train_distributed(
        2,
        || Mlp::new(&[8, 16, 4], &mut Rng::seed_from_u64(3)),
        || Sgd::with_momentum(0.9),
        &train,
        &val,
        &cfg,
    );
    assert!(r.best_metric() > 0.93, "val acc {}", r.best_metric());
}

#[test]
fn resnet_classification_converges_with_kfac() {
    let train = PatternImages::generate(256, 3, 12, 4, 0.3, 62);
    let val = PatternImages::generate(64, 3, 12, 4, 0.3, 63);
    let cfg = TrainConfig {
        epochs: 8,
        local_batch: 16,
        schedule: LrSchedule::Warmup { lr: 0.06, warmup: 8 },
        kfac: Some(kfac_cfg()),
        seed: 2,
        ..Default::default()
    };
    let model_cfg = ResNetMiniConfig {
        in_channels: 3,
        width: 6,
        blocks_stage1: 1,
        blocks_stage2: 1,
        classes: 4,
    };
    let r = train_distributed(
        2,
        || ResNetMini::new(model_cfg, &mut Rng::seed_from_u64(5)),
        || Sgd::with_momentum(0.9),
        &train,
        &val,
        &cfg,
    );
    assert!(r.best_metric() > 0.7, "ResNet val acc {}", r.best_metric());
}

#[test]
fn unet_segmentation_converges_with_kfac() {
    let train = BlobSegmentation::generate(96, 16, 0.2, 64);
    let val = BlobSegmentation::generate(32, 16, 0.2, 65);
    let cfg = TrainConfig {
        epochs: 10,
        local_batch: 8,
        schedule: LrSchedule::Constant { lr: 2e-3 },
        kfac: Some(kfac_cfg()),
        seed: 3,
        eval_batch: 16,
        ..Default::default()
    };
    let r = train_distributed(
        2,
        || kaisa::nn::models::UNetMini::new(1, 6, &mut Rng::seed_from_u64(7)),
        Adam::new,
        &train,
        &val,
        &cfg,
    );
    assert!(r.best_metric() > 0.6, "U-Net val DSC {}", r.best_metric());
}

#[test]
fn bert_masked_lm_converges_with_kfac() {
    let rules = SequenceRules { vocab: 20, mult: 1, offset: 3, rule_probability: 0.97 };
    let train = MaskedTokenTask::generate(256, 10, rules, 0.25, 66);
    let val = MaskedTokenTask::generate(64, 10, rules, 0.25, 67);
    let model_cfg =
        BertMiniConfig { vocab: 20, d_model: 24, heads: 2, layers: 1, ffn_dim: 48, max_seq: 10 };
    let cfg = TrainConfig {
        epochs: 25,
        local_batch: 16,
        schedule: LrSchedule::WarmupPoly { lr: 3e-2, warmup: 10, total: 400, power: 1.0 },
        kfac: Some(kfac_cfg()),
        seed: 4,
        eval_batch: 32,
        ..Default::default()
    };
    let r = train_distributed(
        2,
        || BertMini::new(model_cfg, &mut Rng::seed_from_u64(9)),
        Lamb::new,
        &train,
        &val,
        &cfg,
    );
    // The rule-following corpus has ~97% predictable masked tokens.
    assert!(r.best_metric() > 0.5, "BERT masked acc {}", r.best_metric());
}

#[test]
fn roi_head_converges_with_kfac() {
    // The detection-head task uses a plain (x -> class + box) structure;
    // train single-process with the Kfac API directly to also cover the
    // RoiHeadMini model outside the harness.
    let mut rng = Rng::seed_from_u64(71);
    let feat = 12usize;
    let n = 128usize;
    // Features correlated with class and box targets.
    let centers = Matrix::randn(3, feat, 1.0, &mut rng);
    let mut x = Matrix::zeros(n, feat);
    let mut classes = Vec::new();
    let mut boxes = Matrix::zeros(n, 4);
    for i in 0..n {
        let c = i % 3;
        classes.push(c);
        for j in 0..feat {
            x.set(i, j, centers.get(c, j) + 0.3 * rng.normal());
        }
        for j in 0..4 {
            boxes.set(i, j, 0.5 * centers.get(c, j));
        }
    }
    let targets = RoiTargets { classes, boxes };

    let comm = kaisa::comm::ThreadComm::world(1).remove(0);
    let mut model = RoiHeadMini::new(feat, 16, 3, &mut rng);
    let mut kfac = kaisa::core::Kfac::new(kfac_cfg(), &mut model, &comm);
    let mut opt = Sgd::with_momentum(0.9);
    let before = model.evaluate(&x, &targets);
    for _ in 0..40 {
        kfac.prepare(&mut model);
        model.zero_grad();
        let _ = model.forward_backward(&x, &targets);
        kfac.step(&mut model, &comm, 0.05);
        kaisa::optim::Optimizer::step_model(&mut opt, &mut model, 0.05);
    }
    let after = model.evaluate(&x, &targets);
    assert!(after.loss < before.loss * 0.5, "loss {} -> {}", before.loss, after.loss);
    assert!(after.metric > 0.9, "cls accuracy {}", after.metric);
}

#[test]
fn kfac_needs_fewer_epochs_than_sgd_on_spirals() {
    // The Figure 1 claim at miniature scale: on a non-linearly-separable
    // task at equal batch size and schedule, K-FAC reaches the target in at
    // most as many epochs as SGD — usually strictly fewer.
    let (train, val) = kaisa::data::SpiralDataset::generate(600, 6, 2, 0.05, 73).split_fifth();
    let target = 0.93f32;
    let epochs_to_target = |kfac: Option<KfacConfig>| -> usize {
        let cfg = TrainConfig {
            epochs: 40,
            local_batch: 24,
            schedule: LrSchedule::Constant { lr: 0.25 },
            kfac,
            target_metric: Some(target),
            seed: 5,
            ..Default::default()
        };
        let r = train_distributed(
            1,
            || Mlp::new(&[6, 24, 24, 2], &mut Rng::seed_from_u64(15)),
            || Sgd::with_momentum(0.9),
            &train,
            &val,
            &cfg,
        );
        r.epochs_to_metric(target).unwrap_or(usize::MAX)
    };
    let sgd_epochs = epochs_to_target(None);
    let kfac_epochs = epochs_to_target(Some(
        KfacConfig::builder().factor_update_freq(5).inv_update_freq(10).build(),
    ));
    assert!(
        kfac_epochs <= sgd_epochs,
        "K-FAC should converge in fewer epochs: {kfac_epochs} vs SGD {sgd_epochs}"
    );
    assert!(kfac_epochs < usize::MAX, "K-FAC must reach the target");
}

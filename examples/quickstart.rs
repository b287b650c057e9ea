//! Quickstart: K-FAC-preconditioned SGD vs. plain SGD on a small MLP.
//!
//! Mirrors the paper's Listing 1: construct a model, wrap a `Kfac`
//! preconditioner around it, and call `kfac.step()` before the optimizer
//! step. Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kaisa::comm::ThreadComm;
use kaisa::core::{Kfac, KfacConfig};
use kaisa::data::{Dataset, GaussianBlobs};
use kaisa::nn::{models::Mlp, Model};
use kaisa::optim::{Optimizer, Sgd};
use kaisa::tensor::Rng;

fn main() {
    let (train, val) = GaussianBlobs::generate(640, 16, 4, 0.5, 7).split(128);
    let train_idx: Vec<usize> = (0..train.len()).collect();
    let val_idx: Vec<usize> = (0..val.len()).collect();
    let (vx, vy) = val.batch(&val_idx);

    let epochs = 12;
    let lr = 0.1;
    let batch = 64;

    println!("== Plain momentum SGD ==");
    let mut model = Mlp::new(&[16, 32, 4], &mut Rng::seed_from_u64(1));
    let mut opt = Sgd::with_momentum(0.9);
    for epoch in 0..epochs {
        let mut loss_sum = 0.0;
        for chunk in train_idx.chunks(batch) {
            let (x, y) = train.batch(chunk);
            model.zero_grad();
            loss_sum += model.forward_backward(&x, &y).loss;
            opt.step_model(&mut model, lr);
        }
        let v = model.evaluate(&vx, &vy);
        println!(
            "epoch {epoch:>2}: train_loss={:.4}  val_acc={:.3}",
            loss_sum / (train.len() / batch) as f32,
            v.metric
        );
    }
    let sgd_acc = model.evaluate(&vx, &vy).metric;

    println!("\n== K-FAC preconditioned SGD (KAISA) ==");
    let comm = ThreadComm::world(1).remove(0);
    let mut model = Mlp::new(&[16, 32, 4], &mut Rng::seed_from_u64(1));
    let mut opt = Sgd::with_momentum(0.9);
    let mut kfac = Kfac::new(
        KfacConfig::builder().damping(0.003).factor_update_freq(5).inv_update_freq(25).build(),
        &mut model,
        &comm,
    );
    for epoch in 0..epochs {
        let mut loss_sum = 0.0;
        for chunk in train_idx.chunks(batch) {
            let (x, y) = train.batch(chunk);
            kfac.prepare(&mut model);
            model.zero_grad();
            loss_sum += model.forward_backward(&x, &y).loss;
            kfac.step(&mut model, &comm, lr);
            opt.step_model(&mut model, lr);
        }
        let v = model.evaluate(&vx, &vy);
        println!(
            "epoch {epoch:>2}: train_loss={:.4}  val_acc={:.3}",
            loss_sum / (train.len() / batch) as f32,
            v.metric
        );
    }
    let kfac_acc = model.evaluate(&vx, &vy).metric;

    println!("\nfinal validation accuracy: SGD {sgd_acc:.3} vs KAISA {kfac_acc:.3}");
    println!("K-FAC memory overhead: {} KiB", kfac.memory_bytes() / 1024);
    println!("\nK-FAC stage timing:\n{}", kfac.stage_times().report());
}

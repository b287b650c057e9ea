//! Loss functions with analytic gradients.
//!
//! One loss per application family in the paper: softmax cross-entropy
//! (classification, ResNet), BCE-with-logits + Dice metric (segmentation,
//! U-Net), cross-entropy + smooth-L1 (detection heads, Mask R-CNN), and
//! masked cross-entropy (language modeling, BERT). All gradients are with
//! respect to the *mean* loss over the batch, matching the capture scaling
//! in [`crate::capture`].

use kaisa_tensor::{ops, Matrix, Tensor4};

/// Result of a classification loss: mean loss, logit gradients, accuracy.
#[derive(Debug, Clone)]
pub struct ClassLoss {
    /// Mean cross-entropy over the batch.
    pub loss: f32,
    /// Gradient with respect to the logits (already divided by batch size).
    pub grad: Matrix,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f32,
}

/// Softmax cross-entropy with integer class labels.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> ClassLoss {
    let (n, classes) = logits.shape();
    assert_eq!(labels.len(), n, "label count mismatch");
    let mut probs = logits.clone();
    ops::softmax_rows(probs.as_mut_slice(), n, classes);

    let mut loss = 0.0f64;
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range");
        let row = probs.row(r);
        loss -= (row[label].max(1e-12) as f64).ln();
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        if argmax == label {
            correct += 1;
        }
    }

    // grad = (softmax - onehot) / n
    let mut grad = probs;
    let inv_n = 1.0 / n as f32;
    for (r, &label) in labels.iter().enumerate() {
        let row = grad.row_mut(r);
        row[label] -= 1.0;
        for v in row.iter_mut() {
            *v *= inv_n;
        }
    }
    ClassLoss { loss: (loss / n as f64) as f32, grad, accuracy: correct as f32 / n as f32 }
}

/// Smooth-L1 (Huber) loss used for bounding-box regression in detection
/// heads; returns `(loss, grad)`.
pub fn smooth_l1_loss(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "smooth_l1 shape mismatch");
    let n = pred.numel().max(1);
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let mut loss = 0.0f64;
    for i in 0..pred.numel() {
        let d = pred.as_slice()[i] - target.as_slice()[i];
        if d.abs() < 1.0 {
            loss += 0.5 * (d as f64) * (d as f64);
            grad.as_mut_slice()[i] = d / n as f32;
        } else {
            loss += d.abs() as f64 - 0.5;
            grad.as_mut_slice()[i] = d.signum() / n as f32;
        }
    }
    ((loss / n as f64) as f32, grad)
}

/// Binary cross-entropy with logits over a segmentation mask; returns
/// `(mean loss, grad wrt logits)`.
pub fn bce_with_logits(logits: &Tensor4, target: &Tensor4) -> (f32, Tensor4) {
    assert_eq!(logits.shape(), target.shape(), "bce shape mismatch");
    let n = logits.numel().max(1);
    let mut grad = Tensor4::zeros(logits.n(), logits.c(), logits.h(), logits.w());
    let mut loss = 0.0f64;
    for i in 0..logits.numel() {
        let z = logits.as_slice()[i];
        let y = target.as_slice()[i];
        // Stable log-sum-exp form: max(z,0) - z*y + ln(1 + e^{-|z|}).
        loss += (z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln()) as f64;
        let p = 1.0 / (1.0 + (-z).exp());
        grad.as_mut_slice()[i] = (p - y) / n as f32;
    }
    ((loss / n as f64) as f32, grad)
}

/// Dice similarity coefficient of thresholded predictions vs. a binary mask
/// — the U-Net validation metric of the paper (Table 1).
pub fn dice_coefficient(logits: &Tensor4, target: &Tensor4, threshold: f32) -> f32 {
    assert_eq!(logits.shape(), target.shape(), "dice shape mismatch");
    let mut intersection = 0.0f64;
    let mut pred_sum = 0.0f64;
    let mut target_sum = 0.0f64;
    for i in 0..logits.numel() {
        let p = if 1.0 / (1.0 + (-logits.as_slice()[i]).exp()) > threshold { 1.0 } else { 0.0 };
        let t = target.as_slice()[i];
        intersection += (p * t) as f64;
        pred_sum += p as f64;
        target_sum += t as f64;
    }
    let denom = pred_sum + target_sum;
    if denom == 0.0 {
        1.0 // both empty: perfect agreement
    } else {
        (2.0 * intersection / denom) as f32
    }
}

/// Masked-token cross-entropy for BERT-style pretraining: only positions
/// with `Some(label)` contribute; returns loss, logit grads, and masked
/// accuracy.
pub fn masked_cross_entropy(logits: &Matrix, labels: &[Option<usize>]) -> ClassLoss {
    let (rows, vocab) = logits.shape();
    assert_eq!(labels.len(), rows, "label count mismatch");
    let masked: usize = labels.iter().filter(|l| l.is_some()).count();
    if masked == 0 {
        return ClassLoss { loss: 0.0, grad: Matrix::zeros(rows, vocab), accuracy: 0.0 };
    }

    let mut probs = logits.clone();
    ops::softmax_rows(probs.as_mut_slice(), rows, vocab);

    let mut loss = 0.0f64;
    let mut correct = 0usize;
    let mut grad = Matrix::zeros(rows, vocab);
    let inv = 1.0 / masked as f32;
    for (r, label) in labels.iter().enumerate() {
        let Some(label) = label else { continue };
        let row = probs.row(r);
        loss -= (row[*label].max(1e-12) as f64).ln();
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        if argmax == *label {
            correct += 1;
        }
        let grow = grad.row_mut(r);
        grow.copy_from_slice(row);
        grow[*label] -= 1.0;
        for v in grow.iter_mut() {
            *v *= inv;
        }
    }
    ClassLoss {
        loss: (loss / masked as f64) as f32,
        grad,
        accuracy: correct as f32 / masked as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_tensor::Rng;

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Matrix::zeros(4, 10);
        let labels = vec![0, 3, 5, 9];
        let out = softmax_cross_entropy(&logits, &labels);
        assert!((out.loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_finite_difference() {
        let mut rng = Rng::seed_from_u64(131);
        let logits = Matrix::randn(3, 5, 1.0, &mut rng);
        let labels = vec![1usize, 4, 0];
        let out = softmax_cross_entropy(&logits, &labels);
        let h = 1e-3;
        for &(r, c) in &[(0usize, 1usize), (1, 2), (2, 0)] {
            let mut lp = logits.clone();
            lp.set(r, c, logits.get(r, c) + h);
            let mut lm = logits.clone();
            lm.set(r, c, logits.get(r, c) - h);
            let fp = softmax_cross_entropy(&lp, &labels).loss;
            let fm = softmax_cross_entropy(&lm, &labels).loss;
            let fd = (fp - fm) / (2.0 * h);
            assert!((fd - out.grad.get(r, c)).abs() < 1e-3);
        }
    }

    #[test]
    fn perfect_prediction_accuracy() {
        let mut logits = Matrix::full(2, 3, -10.0);
        logits.set(0, 2, 10.0);
        logits.set(1, 0, 10.0);
        let out = softmax_cross_entropy(&logits, &[2, 0]);
        assert_eq!(out.accuracy, 1.0);
        assert!(out.loss < 1e-4);
    }

    #[test]
    fn smooth_l1_transitions() {
        let p = Matrix::from_vec(1, 2, vec![0.5, 3.0]);
        let t = Matrix::zeros(1, 2);
        let (loss, grad) = smooth_l1_loss(&p, &t);
        // (0.5*0.25 + (3-0.5)) / 2 = (0.125 + 2.5)/2
        assert!((loss - 1.3125).abs() < 1e-5);
        assert!((grad.get(0, 0) - 0.25).abs() < 1e-6);
        assert!((grad.get(0, 1) - 0.5).abs() < 1e-6); // clipped
    }

    #[test]
    fn bce_gradient_finite_difference() {
        let mut rng = Rng::seed_from_u64(132);
        let logits = Tensor4::randn(1, 1, 2, 2, 1.0, &mut rng);
        let target = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        let (_, grad) = bce_with_logits(&logits, &target);
        let h = 1e-3;
        for idx in 0..4 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += h;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= h;
            let fp = bce_with_logits(&lp, &target).0;
            let fm = bce_with_logits(&lm, &target).0;
            let fd = (fp - fm) / (2.0 * h);
            assert!((fd - grad.as_slice()[idx]).abs() < 1e-3);
        }
    }

    #[test]
    fn dice_extremes() {
        let big = Tensor4::from_vec(1, 1, 1, 2, vec![10.0, 10.0]);
        let ones = Tensor4::from_vec(1, 1, 1, 2, vec![1.0, 1.0]);
        let zeros = Tensor4::from_vec(1, 1, 1, 2, vec![0.0, 0.0]);
        assert_eq!(dice_coefficient(&big, &ones, 0.5), 1.0);
        assert_eq!(dice_coefficient(&big, &zeros, 0.5), 0.0);
        let small = Tensor4::from_vec(1, 1, 1, 2, vec![-10.0, -10.0]);
        assert_eq!(dice_coefficient(&small, &zeros, 0.5), 1.0, "both empty is perfect");
    }

    #[test]
    fn masked_ce_ignores_unmasked() {
        let mut rng = Rng::seed_from_u64(133);
        let logits = Matrix::randn(4, 6, 1.0, &mut rng);
        let labels = vec![None, Some(2), None, Some(5)];
        let out = masked_cross_entropy(&logits, &labels);
        // Unmasked rows get zero gradient.
        for c in 0..6 {
            assert_eq!(out.grad.get(0, c), 0.0);
            assert_eq!(out.grad.get(2, c), 0.0);
        }
        // Masked rows have softmax-minus-onehot structure: row sums to 0.
        let s: f32 = out.grad.row(1).iter().sum();
        assert!(s.abs() < 1e-5);
    }

    #[test]
    fn masked_ce_all_unmasked_is_zero() {
        let logits = Matrix::zeros(2, 3);
        let out = masked_cross_entropy(&logits, &[None, None]);
        assert_eq!(out.loss, 0.0);
        assert_eq!(out.grad.max_abs(), 0.0);
    }
}

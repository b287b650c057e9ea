//! Learning-rate schedules.
//!
//! The paper's experiments all use linear warmup (Table 2's `WU` column)
//! followed by an application-specific decay: step decay for ResNet, none
//! for Mask R-CNN's short schedule, polynomial decay for BERT.

/// A learning-rate schedule mapping iteration → learning rate.
#[derive(Debug, Clone)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant {
        /// The learning rate.
        lr: f32,
    },
    /// Linear warmup from `lr/`warmup to `lr`, then constant.
    Warmup {
        /// Peak learning rate.
        lr: f32,
        /// Warmup iterations.
        warmup: usize,
    },
    /// Linear warmup, then multiply by `gamma` at each milestone iteration.
    WarmupStep {
        /// Peak learning rate.
        lr: f32,
        /// Warmup iterations.
        warmup: usize,
        /// Iterations at which the rate decays.
        milestones: Vec<usize>,
        /// Decay factor per milestone.
        gamma: f32,
    },
    /// Linear warmup then polynomial decay (power 1 = linear), the BERT
    /// pretraining schedule.
    WarmupPoly {
        /// Peak learning rate.
        lr: f32,
        /// Warmup iterations.
        warmup: usize,
        /// Total training iterations.
        total: usize,
        /// Decay power.
        power: f32,
    },
}

impl LrSchedule {
    /// The learning rate at iteration `step` (0-based).
    pub fn lr_at(&self, step: usize) -> f32 {
        match self {
            LrSchedule::Constant { lr } => *lr,
            LrSchedule::Warmup { lr, warmup } => warmup_factor(step, *warmup) * lr,
            LrSchedule::WarmupStep { lr, warmup, milestones, gamma } => {
                let passed = milestones.iter().filter(|&&m| step >= m).count();
                warmup_factor(step, *warmup) * lr * gamma.powi(passed as i32)
            }
            LrSchedule::WarmupPoly { lr, warmup, total, power } => {
                if step < *warmup {
                    warmup_factor(step, *warmup) * lr
                } else {
                    let progress =
                        (step - warmup) as f32 / (total.saturating_sub(*warmup)).max(1) as f32;
                    let progress = progress.min(1.0);
                    lr * (1.0 - progress).powf(*power)
                }
            }
        }
    }
}

fn warmup_factor(step: usize, warmup: usize) -> f32 {
    if warmup == 0 || step >= warmup {
        1.0
    } else {
        (step + 1) as f32 / warmup as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant() {
        let s = LrSchedule::Constant { lr: 0.1 };
        assert_eq!(s.lr_at(0), 0.1);
        assert_eq!(s.lr_at(10_000), 0.1);
    }

    #[test]
    fn warmup_ramps_linearly() {
        let s = LrSchedule::Warmup { lr: 1.0, warmup: 10 };
        assert!((s.lr_at(0) - 0.1).abs() < 1e-6);
        assert!((s.lr_at(4) - 0.5).abs() < 1e-6);
        assert_eq!(s.lr_at(9), 1.0);
        assert_eq!(s.lr_at(100), 1.0);
    }

    #[test]
    fn step_decay_at_milestones() {
        let s =
            LrSchedule::WarmupStep { lr: 0.8, warmup: 0, milestones: vec![100, 200], gamma: 0.1 };
        assert_eq!(s.lr_at(50), 0.8);
        assert!((s.lr_at(100) - 0.08).abs() < 1e-6);
        assert!((s.lr_at(250) - 0.008).abs() < 1e-6);
    }

    #[test]
    fn poly_linear_decay() {
        let s = LrSchedule::WarmupPoly { lr: 1.0, warmup: 0, total: 100, power: 1.0 };
        assert!((s.lr_at(25) - 0.75).abs() < 0.02);
        assert!(s.lr_at(100) < 1e-6);
    }

    #[test]
    fn schedules_are_monotone_after_warmup() {
        let s = LrSchedule::WarmupPoly { lr: 1.0, warmup: 10, total: 100, power: 2.0 };
        let mut prev = f32::INFINITY;
        for step in 10..100 {
            let lr = s.lr_at(step);
            assert!(lr <= prev + 1e-6, "schedule must not increase after warmup");
            prev = lr;
        }
    }
}

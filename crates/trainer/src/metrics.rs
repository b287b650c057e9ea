//! Training records: per-epoch metrics and time-to-convergence.

use kaisa_core::StageTimes;

/// Metrics for one training epoch.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Mean training metric over the epoch.
    pub train_metric: f32,
    /// Validation loss after the epoch.
    pub val_loss: f32,
    /// Validation metric after the epoch.
    pub val_metric: f32,
    /// Cumulative wall-clock seconds at the end of this epoch.
    pub cumulative_seconds: f64,
    /// Optimizer iterations completed so far.
    pub iterations: usize,
}

/// Outcome of a training run on one rank.
#[derive(Debug, Clone, Default)]
pub struct TrainResult {
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// First epoch whose validation metric reached the target, with the
    /// cumulative wall seconds at that point.
    pub converged: Option<(usize, f64)>,
    /// Total wall seconds.
    pub total_seconds: f64,
    /// Total optimizer iterations.
    pub iterations: usize,
    /// K-FAC memory overhead on this rank (bytes; 0 without K-FAC).
    pub kfac_memory_bytes: usize,
    /// The live per-rank K-FAC memory meter (peak/current resident bytes
    /// per category), if K-FAC ran — the measured counterpart of
    /// `kfac_memory_bytes`'s analytic model.
    pub kfac_memory: Option<kaisa_core::MemoryMeter>,
    /// Logical K-FAC communication bytes at the storage precision.
    pub kfac_comm_bytes: u64,
    /// K-FAC stage timing (Figure 7 data), if K-FAC ran.
    pub stage_times: Option<StageTimes>,
    /// Average seconds per iteration.
    pub avg_iteration_seconds: f64,
}

impl TrainResult {
    /// Best validation metric seen.
    pub fn best_metric(&self) -> f32 {
        self.epochs.iter().map(|e| e.val_metric).fold(f32::NEG_INFINITY, f32::max)
    }

    /// Final validation loss.
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map_or(f32::NAN, |e| e.val_loss)
    }

    /// Epochs needed to reach `target` validation metric, if ever.
    pub fn epochs_to_metric(&self, target: f32) -> Option<usize> {
        self.epochs.iter().find(|e| e.val_metric >= target).map(|e| e.epoch)
    }

    /// Iterations needed to reach `target` validation metric, if ever.
    pub fn iterations_to_metric(&self, target: f32) -> Option<usize> {
        self.epochs.iter().find(|e| e.val_metric >= target).map(|e| e.iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: usize, metric: f32, iters: usize) -> EpochRecord {
        EpochRecord {
            epoch,
            train_loss: 1.0,
            train_metric: metric,
            val_loss: 1.0,
            val_metric: metric,
            cumulative_seconds: epoch as f64,
            iterations: iters,
        }
    }

    #[test]
    fn convergence_queries() {
        let r = TrainResult {
            epochs: vec![rec(0, 0.3, 10), rec(1, 0.6, 20), rec(2, 0.9, 30)],
            ..Default::default()
        };
        assert_eq!(r.epochs_to_metric(0.5), Some(1));
        assert_eq!(r.iterations_to_metric(0.85), Some(30));
        assert_eq!(r.epochs_to_metric(0.95), None);
        assert_eq!(r.best_metric(), 0.9);
    }
}

//! Stage-level timing of `Kfac::step()` — the instrumentation behind the
//! paper's Figure 7 breakdown.

use std::time::Instant;

/// The stages of `KFAC.step()` in the order Figure 7 reports them.
pub const KFAC_STAGES: [&str; 7] = [
    "compute factors",
    "communicate factors",
    "compute eigendecomp",
    "communicate eigendecomp",
    "precondition gradient",
    "communicate gradient",
    "scale and update grads",
];

/// Accumulated wall seconds per stage, plus step counts for averaging.
///
/// Besides the aggregate per-stage totals, seconds reported through
/// [`StageTimes::add_layer`] / [`StageTimes::time_layer`] are also
/// attributed to a `(layer, stage)` cell, giving Figure 7 a per-layer
/// breakdown — which is exactly the granularity of the stage pipeline's
/// task units.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    seconds: [f64; 7],
    /// Per-layer `(layer, stage)` seconds; grown on first use.
    per_layer: Vec<[f64; 7]>,
    /// Total `step()` calls timed.
    pub steps: u64,
}

/// Stage indices (match [`KFAC_STAGES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Factor averaging / statistics finalization.
    FactorCompute = 0,
    /// Factor allreduce.
    FactorComm = 1,
    /// Eigendecomposition and outer-product computation.
    EigCompute = 2,
    /// Eigendecomposition broadcasts.
    EigComm = 3,
    /// Local gradient preconditioning.
    Precondition = 4,
    /// Preconditioned-gradient broadcasts.
    GradComm = 5,
    /// KL-clip scaling and writing gradients back.
    Scale = 6,
}

impl StageTimes {
    /// Fresh zeroed timer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `seconds` to one stage.
    pub fn add(&mut self, stage: Stage, seconds: f64) {
        self.seconds[stage as usize] += seconds;
    }

    /// Time a closure into a stage, returning its value.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(stage, start.elapsed().as_secs_f64());
        out
    }

    /// Add `seconds` to one `(layer, stage)` cell *and* the aggregate stage.
    pub fn add_layer(&mut self, layer: usize, stage: Stage, seconds: f64) {
        if self.per_layer.len() <= layer {
            self.per_layer.resize(layer + 1, [0.0; 7]);
        }
        self.per_layer[layer][stage as usize] += seconds;
        self.seconds[stage as usize] += seconds;
    }

    /// Time a closure into a `(layer, stage)` cell, returning its value.
    pub fn time_layer<T>(&mut self, layer: usize, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_layer(layer, stage, start.elapsed().as_secs_f64());
        out
    }

    /// Number of layers that have received per-layer time.
    pub fn layers(&self) -> usize {
        self.per_layer.len()
    }

    /// Total seconds in one `(layer, stage)` cell (0 for untimed layers).
    pub fn layer_total(&self, layer: usize, stage: Stage) -> f64 {
        self.per_layer.get(layer).map_or(0.0, |row| row[stage as usize])
    }

    /// Average seconds per step for each stage of one layer.
    pub fn layer_averages(&self, layer: usize) -> [f64; 7] {
        let n = self.steps.max(1) as f64;
        let mut out = self.per_layer.get(layer).copied().unwrap_or([0.0; 7]);
        for v in out.iter_mut() {
            *v /= n;
        }
        out
    }

    /// Total seconds in a stage.
    pub fn total(&self, stage: Stage) -> f64 {
        self.seconds[stage as usize]
    }

    /// Average seconds per step for each stage (Figure 7 series).
    pub fn averages(&self) -> [f64; 7] {
        let n = self.steps.max(1) as f64;
        let mut out = self.seconds;
        for v in out.iter_mut() {
            *v /= n;
        }
        out
    }

    /// Total seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Render a one-line-per-stage report.
    pub fn report(&self) -> String {
        let avgs = self.averages();
        let mut out = String::new();
        for (name, avg) in KFAC_STAGES.iter().zip(avgs) {
            out.push_str(&format!("{name:<26} {:>10.3} ms/step\n", avg * 1e3));
        }
        out
    }

    /// Render a per-layer breakdown: one row per layer, one column per
    /// stage, in ms/step.
    pub fn layer_report(&self) -> String {
        let mut out = String::new();
        out.push_str("layer");
        for name in KFAC_STAGES {
            out.push_str(&format!("  {name}"));
        }
        out.push('\n');
        for layer in 0..self.per_layer.len() {
            let avgs = self.layer_averages(layer);
            out.push_str(&format!("{layer:<5}"));
            for (name, avg) in KFAC_STAGES.iter().zip(avgs) {
                out.push_str(&format!("  {:>width$.3}", avg * 1e3, width = name.len()));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_averages() {
        let mut t = StageTimes::new();
        t.add(Stage::Precondition, 0.5);
        t.add(Stage::Precondition, 0.5);
        t.add(Stage::GradComm, 0.25);
        t.steps = 4;
        assert_eq!(t.total(Stage::Precondition), 1.0);
        let avgs = t.averages();
        assert!((avgs[Stage::Precondition as usize] - 0.25).abs() < 1e-12);
        assert!((avgs[Stage::GradComm as usize] - 0.0625).abs() < 1e-12);
        assert!((t.total_seconds() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn time_closure_returns_value() {
        let mut t = StageTimes::new();
        let v = t.time(Stage::EigCompute, || 42);
        assert_eq!(v, 42);
        assert!(t.total(Stage::EigCompute) >= 0.0);
    }

    #[test]
    fn report_mentions_every_stage() {
        let t = StageTimes::new();
        let r = t.report();
        for name in KFAC_STAGES {
            assert!(r.contains(name));
        }
    }

    #[test]
    fn per_layer_cells_feed_the_aggregate() {
        let mut t = StageTimes::new();
        t.add_layer(2, Stage::FactorComm, 0.25);
        t.add_layer(0, Stage::FactorComm, 0.5);
        t.add_layer(0, Stage::EigCompute, 1.0);
        assert_eq!(t.layers(), 3);
        assert_eq!(t.layer_total(0, Stage::FactorComm), 0.5);
        assert_eq!(t.layer_total(2, Stage::FactorComm), 0.25);
        assert_eq!(t.layer_total(1, Stage::FactorComm), 0.0);
        assert_eq!(t.layer_total(9, Stage::FactorComm), 0.0);
        // Aggregate view sees the sum over layers.
        assert_eq!(t.total(Stage::FactorComm), 0.75);
        assert_eq!(t.total(Stage::EigCompute), 1.0);
        t.steps = 2;
        let avgs = t.layer_averages(0);
        assert!((avgs[Stage::FactorComm as usize] - 0.25).abs() < 1e-12);
        assert!(t.layer_report().contains("compute factors"));
    }
}

//! The metric tables (`BENCHMARK.json` is checked against them by a unit
//! test) and the result of one workload run.

use crate::stats::{median, percentile};

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// What a user of the system sees; reported by every workload with tracing off.
/// The timing bounds sit at the contract's cap because the 2-core box this
/// runs on drifts by 10-15 % over minutes (see the README's spread table).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("samples_per_s", "1/s", "higher", 0.25),
    e2e("latency_ms_p50", "ms", "lower", 0.25),
    e2e("latency_ms_p95", "ms", "lower", 0.25),
    e2e("kfac_overhead_x", "x", "lower", 0.25),
    e2e("kfac_mem_peak_bytes", "bytes", "lower", 0.0),
];

/// Single-layer metrics from the traced run, `<crate>.<name>`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("data.batch_ms", "ms", "lower"),
    layer("nn.fwd_bwd_ms", "ms", "lower"),
    layer("nn.capture_ms", "ms", "lower"),
    layer("tensor.gram_tn_gflops", "gflop/s", "higher"),
    layer("tensor.gemm_nn_gflops_solo", "gflop/s", "higher"),
    layer("tensor.gemm_nn_gflops_2ranks", "gflop/s", "higher"),
    layer("linalg.sym_eig_max_ms", "ms", "lower"),
    layer("linalg.sym_eig_sum_ms", "ms", "lower"),
    layer("core.kfac_step_plain_ms", "ms", "lower"),
    layer("core.kfac_step_factor_ms", "ms", "lower"),
    layer("core.kfac_step_inverse_ms", "ms", "lower"),
    layer("core.factor_compute_ms", "ms", "lower"),
    layer("core.factor_comm_ms", "ms", "lower"),
    layer("core.eig_compute_ms", "ms", "lower"),
    layer("core.eig_comm_ms", "ms", "lower"),
    layer("core.precondition_ms", "ms", "lower"),
    layer("core.grad_comm_ms", "ms", "lower"),
    layer("core.scale_ms", "ms", "lower"),
    layer("core.lpt_imbalance_x", "x", "lower"),
    layer("core.kfac_mem_peak_bytes", "bytes", "lower"),
    layer("trainer.ddp_allreduce_ms", "ms", "lower"),
    layer("trainer.residual_ms", "ms", "lower"),
    layer("trainer.parts_share", "share", "higher"),
    layer("comm.allreduce_ms", "ms", "lower"),
    layer("comm.wait_ms", "ms", "lower"),
    layer("comm.allreduce_grad_us", "us", "lower"),
    layer("comm.broadcast_layer_us", "us", "lower"),
    layer("comm.barrier_us", "us", "lower"),
    layer("comm.bytes_per_step", "bytes", "lower"),
    layer("comm.ddp_bytes_per_step", "bytes", "lower"),
    layer("comm.factor_bytes_per_step", "bytes", "lower"),
    layer("comm.eig_bytes_per_step", "bytes", "lower"),
    layer("comm.grad_bytes_per_step", "bytes", "lower"),
    layer("comm.calls_per_step", "count", "lower"),
    layer("optim.step_ms", "ms", "lower"),
    layer("serve.queue_wait_ms_p50", "ms", "lower"),
    layer("serve.resize_ms_p50", "ms", "lower"),
    layer("serve.checkpoint_bytes", "bytes", "lower"),
    layer("serve.ckpt_encode_us", "us", "lower"),
    layer("serve.ckpt_decode_us", "us", "lower"),
    layer("serve.pool_busy_share", "share", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// Which half of the benchmark a run measures (`--trace 0` / `--trace 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    EndToEnd,
    Traced,
}

impl Mode {
    pub fn defs(self) -> &'static [MetricDef] {
        match self {
            Mode::EndToEnd => END_TO_END,
            Mode::Traced => PER_LAYER,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mode::EndToEnd => "end_to_end",
            Mode::Traced => "per_layer",
        }
    }
}

/// What one round of an end-to-end run measured: a K-FAC window (or fleet)
/// and the first-order window that followed it.
pub struct Round {
    pub setup_s: f64,
    pub samples_per_s: f64,
    pub baseline_samples_per_s: f64,
    /// One entry per closed-loop request of the K-FAC window.
    pub latency_ms: Vec<f64>,
    pub mem_peak_bytes: usize,
}

/// One output check: what was verified and whether it held.
pub struct Check {
    pub what: String,
    pub ok: bool,
}

/// Everything one `(workload, mode)` run produced.
pub struct Outcome {
    pub mode: Mode,
    /// Operations attempted (training steps, or serve jobs) and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Values in the order of `mode.defs()`; per-layer metrics a workload has
    /// no source for stay 0.
    values: Vec<f64>,
    /// Sample counts and other context printed beside the metrics.
    pub notes: Vec<String>,
    pub strategy: String,
    /// Checksum of the first steps' rank-0 loss bits (see `README.md`).
    pub loss_checksum: u64,
}

impl Outcome {
    pub fn new(mode: Mode) -> Self {
        Outcome {
            mode,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            values: vec![0.0; mode.defs().len()],
            notes: Vec::new(),
            strategy: String::new(),
            loss_checksum: 0,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .mode
            .defs()
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a {} metric", self.mode.name()));
        self.values[i] = value;
    }

    /// Set the end-to-end metrics from the rounds of a run. Every timing is
    /// the median over the rounds of the round's own figure, so one window
    /// hit by a slow spell (typically the first of a process, while the
    /// allocator settles) moves nothing, and the overhead is a ratio of two
    /// windows seconds apart.
    pub fn set_end_to_end(&mut self, rounds: &[Round]) {
        type Figure<'a> = &'a dyn Fn(&Round) -> f64;
        let figures: [(&str, Figure); 5] = [
            ("setup_s", &|r| r.setup_s),
            ("samples_per_s", &|r| r.samples_per_s),
            ("latency_ms_p50", &|r| median(&r.latency_ms)),
            ("latency_ms_p95", &|r| percentile(&r.latency_ms, 95)),
            ("kfac_overhead_x", &|r| r.baseline_samples_per_s / r.samples_per_s),
        ];
        let mut note = String::from("per round:");
        for (name, figure) in figures {
            let per_round: Vec<f64> = rounds.iter().map(figure).collect();
            self.set(name, median(&per_round));
            let shown: Vec<String> = per_round.iter().map(|v| format!("{v:.2}")).collect();
            note.push_str(&format!(" {name} {};", shown.join(" / ")));
        }
        self.notes.push(note);
        let peak = rounds.iter().map(|r| r.mem_peak_bytes).max().unwrap_or(0);
        self.set("kfac_mem_peak_bytes", peak as f64);
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push(Check { what: what.into(), ok });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn metrics(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.mode.defs().iter().zip(self.values.iter().copied())
    }

    /// The driver's result line: one JSON object, printed last.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .map(|(d, v)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, num(v), d.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all the digits `f64` carries; non-finite values (which
/// no metric should produce) degrade to 0 rather than to invalid JSON.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` as these tables define it; the committed file must
    /// match byte for byte, so a metric cannot be added in one place only.
    fn render_benchmark_json() -> String {
        let mut s = String::from("{\n");
        s.push_str(
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
             \"--manifest-path\", \"bench_e2e/Cargo.toml\", \"--\"],\n",
        );
        s.push_str("  \"paths\": [\"bench_e2e\", \"results/bench_e2e\"],\n");
        s.push_str(&format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS));
        s.push_str("  \"workloads\": [\n");
        let rows: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ],\n  \"end_to_end\": [\n");
        let rows: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name, d.unit, d.better, d.bound
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ],\n  \"per_layer\": [\n");
        let rows: Vec<String> = PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name, d.unit, d.better
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let expected = render_benchmark_json();
        let committed = include_str!("../../BENCHMARK.json");
        assert!(committed == expected, "BENCHMARK.json is stale; it should read:\n{expected}");
    }

    /// `BENCHMARK.json`'s rule for a name: `[A-Za-z0-9_.-]`, at most 64
    /// characters, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        (1..=64).contains(&name.len())
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn name_charset() {
        for good in ["core.kfac_step_plain_ms", "setup_s", "p95-x", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn names_units_and_bounds_obey_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let declared = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), declared, "a name is used twice");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().chain(PER_LAYER).all(|d| unit_ok(d.unit)));
        assert!(END_TO_END.iter().all(|d| (0.0..=0.25).contains(&d.bound)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome::new(Mode::EndToEnd);
        out.attempted = 12;
        out.set("setup_s", 1.25);
        out.check("ranks agree", true);
        let line = out.result_line();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        out.check("loss stays healthy", false);
        assert!(out.result_line().starts_with("{\"correct\": false"));
    }
}

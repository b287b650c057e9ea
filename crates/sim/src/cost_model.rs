//! α–β analytic cost models for collectives.
//!
//! The paper's performance arguments (Section 3.1) rest on the standard
//! latency–bandwidth model of collective algorithms: a point-to-point message
//! of `n` bytes costs `α + nβ`; a binomial-tree broadcast over `p` ranks
//! costs `⌈log₂ p⌉ (α + nβ)`; a ring allreduce costs
//! `2(p-1)α + 2n β (p-1)/p`. KAISA's HYBRID-OPT replaces one broadcast to
//! `p` ranks with `g` *concurrent* broadcasts to `p/g` ranks each, dropping
//! the preconditioned-gradient broadcast complexity from `O(log p)` to
//! `O(log (p/g))`.

/// Latency–bandwidth model of one network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterNetwork {
    /// Per-message latency, seconds (the α term).
    pub latency_s: f64,
    /// Per-byte transfer time, seconds (the β term, i.e. 1/bandwidth).
    pub seconds_per_byte: f64,
}

impl ClusterNetwork {
    /// InfiniBand EDR-class network (Frontera's V100 subsystem): ~100 Gb/s
    /// effective per direction, ~20 µs collective launch latency.
    pub fn infiniband_edr() -> Self {
        ClusterNetwork { latency_s: 20e-6, seconds_per_byte: 1.0 / 12.5e9 }
    }

    /// NVLink/NVSwitch-class intra-node fabric on DGX-A100 (Theta): ~200 Gb/s
    /// effective, lower launch latency.
    pub fn dgx_a100() -> Self {
        ClusterNetwork { latency_s: 10e-6, seconds_per_byte: 1.0 / 25e9 }
    }

    /// Point-to-point cost of one `n`-byte message.
    pub fn p2p(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 * self.seconds_per_byte
    }
}

/// Cost model dispatching per collective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveCostModel {
    /// The underlying link model.
    pub network: ClusterNetwork,
}

impl CollectiveCostModel {
    /// Build a cost model over the given network.
    pub fn new(network: ClusterNetwork) -> Self {
        CollectiveCostModel { network }
    }

    /// Binomial (minimum-spanning-tree) broadcast of `bytes` to a group of
    /// `p` ranks: `⌈log₂ p⌉ (α + nβ)` — the complexity the paper's Section
    /// 3.1 analysis uses for the per-layer preconditioned-gradient messages
    /// (which are small enough that chunk pipelining does not amortize the
    /// tree depth). A group of one costs nothing.
    pub fn broadcast(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (usize::BITS - (p - 1).leading_zeros()) as f64; // ceil(log2 p)
        rounds * self.network.p2p(bytes)
    }

    /// Ring allreduce of `bytes` across `p` ranks:
    /// `2(p-1)α + 2 n β (p-1)/p`.
    pub fn allreduce(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let pf = p as f64;
        2.0 * (pf - 1.0) * self.network.latency_s
            + 2.0 * bytes as f64 * self.network.seconds_per_byte * (pf - 1.0) / pf
    }

    /// Ring allgather where each rank contributes `bytes`:
    /// `(p-1)(α + nβ)`.
    pub fn allgather(&self, bytes_per_rank: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64 - 1.0) * self.network.p2p(bytes_per_rank)
    }

    /// Dissemination barrier: `⌈log₂ p⌉` zero-byte rounds.
    pub fn barrier(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (usize::BITS - (p - 1).leading_zeros()) as f64;
        rounds * self.network.latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CollectiveCostModel {
        CollectiveCostModel::new(ClusterNetwork { latency_s: 1e-5, seconds_per_byte: 1e-9 })
    }

    #[test]
    fn broadcast_log_scaling() {
        let m = model();
        let n = 1 << 20;
        // log2(8) = 3 rounds vs log2(2) = 1 round: exactly 3x.
        let c8 = m.broadcast(n, 8);
        let c2 = m.broadcast(n, 2);
        assert!((c8 / c2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_non_power_of_two_uses_ceil() {
        let m = model();
        // ceil(log2(5)) = 3 == ceil(log2(8)).
        assert_eq!(m.broadcast(100, 5), m.broadcast(100, 8));
    }

    #[test]
    fn singleton_groups_are_free() {
        let m = model();
        assert_eq!(m.broadcast(1000, 1), 0.0);
        assert_eq!(m.allreduce(1000, 1), 0.0);
        assert_eq!(m.allgather(1000, 1), 0.0);
        assert_eq!(m.barrier(1), 0.0);
    }

    #[test]
    fn ring_allreduce_bandwidth_term_saturates() {
        // As p grows, the bandwidth term approaches 2nβ (ring optimality).
        let m = model();
        let n = 100 << 20;
        let c_large = m.allreduce(n, 1024);
        let bw_bound = 2.0 * n as f64 * m.network.seconds_per_byte;
        // Latency term: 2 * 1023 * 1e-5 ≈ 0.02 s; bandwidth ≈ 0.21 s.
        assert!(c_large > bw_bound);
        assert!(c_large < bw_bound * 1.15);
    }

    #[test]
    fn hybrid_opt_broadcast_claim() {
        // The paper's Figure 4 example: MEM-OPT broadcasts to 8 ranks
        // (O(log 8)); HYBRID-OPT with 4 gradient workers does 4 concurrent
        // broadcasts to groups of 2 (O(log 2)) — 3x cheaper per the model.
        let m = model();
        let n = 4 << 20;
        let mem_opt = m.broadcast(n, 8);
        let hybrid = m.broadcast(n, 2); // concurrent, so one group's cost
        assert!((mem_opt / hybrid - 3.0).abs() < 1e-9);
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        let ib = ClusterNetwork::infiniband_edr();
        let dgx = ClusterNetwork::dgx_a100();
        let n = 1 << 24;
        assert!(dgx.p2p(n) < ib.p2p(n));
    }
}

//! GPU and cluster device models.

use crate::cost_model::ClusterNetwork;

/// Performance model of one accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Device memory in bytes.
    pub mem_bytes: u64,
    /// Peak FP32 FLOP/s.
    pub flops_fp32: f64,
    /// Peak FP16 (tensor-core) FLOP/s.
    pub flops_fp16: f64,
    /// Fraction of FP32 peak achieved by large GEMMs.
    pub gemm_efficiency_fp32: f64,
    /// Fraction of FP16 tensor-core peak achieved by mixed-precision
    /// training GEMMs (markedly lower — tensor cores are memory-bound on
    /// real layer shapes).
    pub gemm_efficiency_fp16: f64,
    /// Fraction of peak achieved by dense symmetric eigensolvers — far lower
    /// than GEMM because `syevd` is bandwidth- and dependency-bound.
    pub eig_efficiency: f64,
}

impl GpuSpec {
    /// NVIDIA Tesla V100-SXM2 16 GB (Frontera's GPU subsystem).
    pub fn v100_16gb() -> Self {
        GpuSpec {
            name: "V100-16GB",
            mem_bytes: 16 * (1 << 30),
            flops_fp32: 15.7e12,
            flops_fp16: 125e12,
            gemm_efficiency_fp32: 0.5,
            gemm_efficiency_fp16: 0.22,
            eig_efficiency: 0.06,
        }
    }

    /// NVIDIA A100-SXM4 40 GB (ThetaGPU DGX-A100 nodes).
    pub fn a100_40gb() -> Self {
        GpuSpec {
            name: "A100-40GB",
            mem_bytes: 40 * (1 << 30),
            flops_fp32: 19.5e12,
            flops_fp16: 312e12,
            gemm_efficiency_fp32: 0.5,
            gemm_efficiency_fp16: 0.25,
            eig_efficiency: 0.06,
        }
    }

    /// Effective GEMM FLOP/s at a given training precision.
    pub fn gemm_flops(&self, half: bool) -> f64 {
        if half {
            self.flops_fp16 * self.gemm_efficiency_fp16
        } else {
            self.flops_fp32 * self.gemm_efficiency_fp32
        }
    }

    /// Effective eigendecomposition FLOP/s (always single precision — the
    /// paper casts factors to FP32 before decomposition, Section 3.3).
    pub fn eig_flops(&self) -> f64 {
        self.flops_fp32 * self.eig_efficiency
    }
}

/// A homogeneous GPU cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// The accelerator model.
    pub gpu: GpuSpec,
    /// Total GPUs (= world size; one rank per GPU as in the paper).
    pub world: usize,
    /// Interconnect model.
    pub network: ClusterNetwork,
}

impl ClusterSpec {
    /// Frontera-like V100 cluster over InfiniBand EDR.
    pub fn frontera(world: usize) -> Self {
        ClusterSpec { gpu: GpuSpec::v100_16gb(), world, network: ClusterNetwork::infiniband_edr() }
    }

    /// ThetaGPU-like DGX-A100 cluster.
    pub fn theta_gpu(world: usize) -> Self {
        ClusterSpec { gpu: GpuSpec::a100_40gb(), world, network: ClusterNetwork::dgx_a100() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_sane() {
        let v = GpuSpec::v100_16gb();
        let a = GpuSpec::a100_40gb();
        assert!(a.flops_fp32 > v.flops_fp32);
        assert!(a.mem_bytes > v.mem_bytes);
        assert!(v.gemm_flops(true) > v.gemm_flops(false), "fp16 is faster");
        assert!(v.eig_flops() < v.gemm_flops(false) / 5.0, "eig far below GEMM");
    }

    #[test]
    fn clusters() {
        let f = ClusterSpec::frontera(64);
        assert_eq!(f.world, 64);
        assert_eq!(f.gpu.name, "V100-16GB");
        let t = ClusterSpec::theta_gpu(128);
        assert_eq!(t.gpu.name, "A100-40GB");
    }
}

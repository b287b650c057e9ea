//! Layer inventories of the paper's evaluated models.
//!
//! Every K-FAC factor dimension below is derived from the true architecture
//! at the paper's input geometry (ImageNet 224², COCO ROI heads, 256² MRI
//! slices for U-Net, BERT-Large at sequence length 512). The inventories
//! drive the Figure 6–8 / Table 5 simulations, so getting the factor shapes
//! right is what makes the memory and bandwidth numbers meaningful.

/// One K-FAC-preconditionable layer of a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerShape {
    /// Layer name.
    pub name: String,
    /// `A` factor dimension: `c_in·kh·kw (+1 with bias)` for Conv2d,
    /// `in_features (+1)` for Linear.
    pub a_dim: usize,
    /// `G` factor dimension: output channels/features.
    pub g_dim: usize,
    /// Spatial positions (or tokens/ROIs) per sample at this layer — the
    /// `T` of the KFC construction; 1 for a plain Linear over sample rows.
    pub spatial: usize,
    /// Trainable parameters in this layer.
    pub params: usize,
}

impl LayerShape {
    fn conv(name: impl Into<String>, c_in: usize, c_out: usize, k: usize, out_hw: usize) -> Self {
        LayerShape {
            name: name.into(),
            a_dim: c_in * k * k,
            g_dim: c_out,
            spatial: out_hw * out_hw,
            params: c_in * k * k * c_out,
        }
    }

    fn linear(name: impl Into<String>, inp: usize, out: usize, rows_per_sample: usize) -> Self {
        LayerShape {
            name: name.into(),
            a_dim: inp + 1,
            g_dim: out,
            spatial: rows_per_sample,
            params: (inp + 1) * out,
        }
    }

    /// Bytes of the two factors at `bytes_per_elem` element size, held
    /// square as the paper's PyTorch implementation holds them.
    pub fn factor_bytes(&self, bytes_per_elem: usize) -> usize {
        (self.a_dim * self.a_dim + self.g_dim * self.g_dim) * bytes_per_elem
    }

    /// Bytes of the two factors on the allreduce wire: the row-packed lower
    /// triangle of each, `n(n+1)/2` elements — also what KAISA-RS holds as
    /// its running factors.
    pub fn factor_wire_bytes(&self, bytes_per_elem: usize) -> usize {
        let packed = |n: usize| n * (n + 1) / 2;
        (packed(self.a_dim) + packed(self.g_dim)) * bytes_per_elem
    }

    /// Bytes of the eigendecomposition cache (`Q_A`, `Q_G`, and the
    /// `g_dim x a_dim` outer product) at `bytes_per_elem`.
    pub fn eig_bytes(&self, bytes_per_elem: usize) -> usize {
        (self.a_dim * self.a_dim + self.g_dim * self.g_dim + self.a_dim * self.g_dim)
            * bytes_per_elem
    }

    /// FLOPs to eigendecompose both factors (`c·n³` with the standard
    /// `c ≈ 9` for `syevd`-style solvers).
    pub fn eig_flops(&self) -> f64 {
        9.0 * ((self.a_dim as f64).powi(3) + (self.g_dim as f64).powi(3))
    }

    /// FLOPs to precondition one gradient through Eq. 15–17: four
    /// rectangular GEMMs (`Q_Gᵀ·∇`, `·Q_A`, `Q_G·V₂`, `·Q_Aᵀ`).
    pub fn precondition_flops(&self) -> f64 {
        let (a, g) = (self.a_dim as f64, self.g_dim as f64);
        4.0 * a * g * (a + g) / 2.0 + a * g
    }

    /// FLOPs per sample to compute the factor statistics `aᵀa` and `gᵀg`.
    pub fn factor_stat_flops(&self) -> f64 {
        let t = self.spatial as f64;
        2.0 * t * ((self.a_dim as f64).powi(2) + (self.g_dim as f64).powi(2))
    }
}

/// A full model: K-FAC layers plus non-preconditioned parameter mass.
#[derive(Debug, Clone)]
pub struct ModelInventory {
    /// Model name as used in the paper's tables.
    pub name: &'static str,
    /// K-FAC-preconditionable layers.
    pub layers: Vec<LayerShape>,
    /// Parameters outside K-FAC's scope (BatchNorm, embeddings, excluded
    /// heads).
    pub extra_params: usize,
    /// Stored-activation bytes per sample during training (inputs cached for
    /// backward), an architecture-level estimate.
    pub activation_bytes_per_sample: usize,
    /// Forward FLOPs per sample spent outside the K-FAC layers (the Mask
    /// R-CNN backbone/RPN; attention score math for BERT). Zero when the
    /// layer list covers the whole network.
    pub extra_fwd_flops_per_sample: f64,
}

impl ModelInventory {
    /// Total trainable parameters.
    pub fn total_params(&self) -> usize {
        self.layers.iter().map(|l| l.params).sum::<usize>() + self.extra_params
    }

    /// Factor dimension pairs for `kaisa_core::plan_assignments`.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        self.layers.iter().map(|l| (l.a_dim, l.g_dim)).collect()
    }

    /// Forward FLOPs per sample (GEMM work only; backward ≈ 2x this).
    pub fn fwd_flops_per_sample(&self) -> f64 {
        self.extra_fwd_flops_per_sample
            + self
                .layers
                .iter()
                .map(|l| 2.0 * l.a_dim as f64 * l.g_dim as f64 * l.spatial as f64)
                .sum::<f64>()
    }

    /// Bytes of all factors at the given element size (replicated on every
    /// rank after the allreduce).
    pub fn all_factor_bytes(&self, bytes_per_elem: usize) -> usize {
        self.layers.iter().map(|l| l.factor_bytes(bytes_per_elem)).sum()
    }

    /// Bytes one factor allreduce sends for the whole model (the packed
    /// triangles of every factor).
    pub fn all_factor_wire_bytes(&self, bytes_per_elem: usize) -> usize {
        self.layers.iter().map(|l| l.factor_wire_bytes(bytes_per_elem)).sum()
    }

    // ----- the paper's models -----

    /// ResNet-18 at ImageNet geometry.
    pub fn resnet18() -> Self {
        Self::resnet(18)
    }

    /// ResNet-50 at ImageNet geometry.
    pub fn resnet50() -> Self {
        Self::resnet(50)
    }

    /// ResNet-101 at ImageNet geometry.
    pub fn resnet101() -> Self {
        Self::resnet(101)
    }

    /// ResNet-152 at ImageNet geometry.
    pub fn resnet152() -> Self {
        Self::resnet(152)
    }

    /// Build a ResNet inventory. Supports depths 18 (basic blocks) and
    /// 50/101/152 (bottleneck blocks).
    pub fn resnet(depth: usize) -> Self {
        let (bottleneck, blocks): (bool, [usize; 4]) = match depth {
            18 => (false, [2, 2, 2, 2]),
            34 => (false, [3, 4, 6, 3]),
            50 => (true, [3, 4, 6, 3]),
            101 => (true, [3, 4, 23, 3]),
            152 => (true, [3, 8, 36, 3]),
            other => panic!("unsupported ResNet depth {other}"),
        };
        let mids = [64usize, 128, 256, 512];
        let hw = [56usize, 28, 14, 7];
        let expansion = if bottleneck { 4 } else { 1 };

        let mut layers = Vec::new();
        let mut extra_params = 0usize;
        let mut bn = |c: usize| extra_params += 2 * c;
        let mut act_bytes = 0usize;

        layers.push(LayerShape::conv("conv1", 3, 64, 7, 112));
        bn(64);
        act_bytes += 64 * 112 * 112 * 4;

        let mut c_in = 64usize;
        for (stage, (&mid, &out_hw)) in mids.iter().zip(&hw).enumerate() {
            let c_out = mid * expansion;
            for b in 0..blocks[stage] {
                let prefix = format!("layer{}.{}", stage + 1, b);
                let stride_stage = b == 0 && stage > 0;
                let _ = stride_stage;
                if bottleneck {
                    layers.push(LayerShape::conv(format!("{prefix}.conv1"), c_in, mid, 1, out_hw));
                    bn(mid);
                    layers.push(LayerShape::conv(format!("{prefix}.conv2"), mid, mid, 3, out_hw));
                    bn(mid);
                    layers.push(LayerShape::conv(format!("{prefix}.conv3"), mid, c_out, 1, out_hw));
                    bn(c_out);
                    act_bytes += (2 * mid + c_out) * out_hw * out_hw * 4;
                } else {
                    layers.push(LayerShape::conv(
                        format!("{prefix}.conv1"),
                        c_in,
                        c_out,
                        3,
                        out_hw,
                    ));
                    bn(c_out);
                    layers.push(LayerShape::conv(
                        format!("{prefix}.conv2"),
                        c_out,
                        c_out,
                        3,
                        out_hw,
                    ));
                    bn(c_out);
                    act_bytes += 2 * c_out * out_hw * out_hw * 4;
                }
                if b == 0 && (c_in != c_out) {
                    layers.push(LayerShape::conv(
                        format!("{prefix}.downsample"),
                        c_in,
                        c_out,
                        1,
                        out_hw,
                    ));
                    bn(c_out);
                }
                c_in = c_out;
            }
        }
        layers.push(LayerShape::linear("fc", 512 * expansion, 1000, 1));

        ModelInventory {
            name: match depth {
                18 => "ResNet-18",
                34 => "ResNet-34",
                50 => "ResNet-50",
                101 => "ResNet-101",
                152 => "ResNet-152",
                _ => "ResNet",
            },
            layers,
            extra_params,
            activation_bytes_per_sample: act_bytes,
            extra_fwd_flops_per_sample: 0.0,
        }
    }

    /// BERT-Large Uncased: 24 transformer layers, hidden 1024, FFN 4096,
    /// at phase-2 sequence length 512. The embedding table and prediction
    /// head are excluded from K-FAC (their Kronecker factor would be
    /// `vocab x vocab` ≈ 30K², paper Section 5.2) but count toward the
    /// parameter mass.
    pub fn bert_large(seq_len: usize) -> Self {
        let d = 1024usize;
        let ffn = 4096usize;
        let vocab = 30522usize;
        let mut layers = Vec::new();
        for l in 0..24 {
            for proj in ["wq", "wk", "wv", "wo"] {
                layers.push(LayerShape::linear(format!("layer{l}.attn.{proj}"), d, d, seq_len));
            }
            layers.push(LayerShape::linear(format!("layer{l}.ffn1"), d, ffn, seq_len));
            layers.push(LayerShape::linear(format!("layer{l}.ffn2"), ffn, d, seq_len));
        }
        // Embeddings (token + position + segment), LayerNorms, pooler, and
        // the MLM head.
        let extra_params = vocab * d + 512 * d + 2 * d   // embeddings
            + 24 * 4 * d                                   // LayerNorm γ/β (2 per sublayer)
            + (d + 1) * d                                  // pooler
            + (d + 1) * vocab; // prediction head
        ModelInventory {
            name: "BERT-Large",
            layers,
            extra_params,
            activation_bytes_per_sample: seq_len * (24 * (4 * d + ffn) + d) * 2, // fp16 activations
            // Attention score/context matmuls: 2 · 2 · T² · d per layer.
            extra_fwd_flops_per_sample: 24.0 * 4.0 * (seq_len * seq_len) as f64 * d as f64,
        }
    }

    /// Mask R-CNN ROI heads (the only part of the detector the paper
    /// preconditions, Section 5.2): the box head's shared FC stack and
    /// predictors, plus the mask head's convolution stack. The box head's
    /// first FC (input 256·7·7 = 12544) is excluded from K-FAC — its `A`
    /// factor alone would be ~630 MB, far above the 100–200 MB K-FAC
    /// overhead the paper reports for Mask R-CNN, so the reference
    /// configuration cannot have included it; it still counts as parameters.
    pub fn mask_rcnn_roi_heads() -> Self {
        let rois = 512usize; // ROIs per image in the box head
        let mask_rois = 128usize;
        let mut layers = vec![
            LayerShape::linear("box_head.fc2", 1024, 1024, rois),
            LayerShape::linear("box_head.cls", 1024, 81, rois),
            LayerShape::linear("box_head.bbox", 1024, 324, rois),
        ];
        for i in 0..4 {
            layers.push(LayerShape {
                name: format!("mask_head.conv{i}"),
                a_dim: 256 * 9,
                g_dim: 256,
                spatial: mask_rois * 14 * 14,
                params: 256 * 9 * 256,
            });
        }
        // Deconv (2x2) + 1x1 mask predictor.
        layers.push(LayerShape {
            name: "mask_head.deconv".to_string(),
            a_dim: 256 * 4,
            g_dim: 256,
            spatial: mask_rois * 28 * 28,
            params: 256 * 4 * 256,
        });
        layers.push(LayerShape {
            name: "mask_head.predictor".to_string(),
            a_dim: 256,
            g_dim: 81,
            spatial: mask_rois * 28 * 28,
            params: 256 * 81,
        });
        // Backbone (ResNet-50-FPN) + RPN + the excluded fc1: first-order
        // parameter mass only.
        let extra_params = 25_600_000 + (12544 + 1) * 1024;
        ModelInventory {
            name: "Mask R-CNN",
            layers,
            extra_params,
            activation_bytes_per_sample: 1500 * (1 << 20), // FPN pyramid at ~800x1333px
            // ResNet-50-FPN backbone + RPN at ~800px inputs.
            extra_fwd_flops_per_sample: 300e9,
        }
    }

    /// VGG-16 at ImageNet geometry — the paper names it as a model whose
    /// "performance characteristics" ResNet-50 represents (Section 5.5);
    /// included so the memory planner can cover the classic heavy-FC case
    /// (its fc1 factor is the largest single K-FAC factor of any model here).
    pub fn vgg16() -> Self {
        let cfg: [(usize, &[usize]); 5] = [
            (224, &[64, 64]),
            (112, &[128, 128]),
            (56, &[256, 256, 256]),
            (28, &[512, 512, 512]),
            (14, &[512, 512, 512]),
        ];
        let mut layers = Vec::new();
        let mut act_bytes = 0usize;
        let mut c_in = 3usize;
        let mut idx = 0usize;
        for (hw, widths) in cfg {
            for &c_out in widths {
                let mut l = LayerShape::conv(format!("conv{idx}"), c_in, c_out, 3, hw);
                // VGG convs carry biases.
                l.a_dim += 1;
                l.params += c_out;
                layers.push(l);
                act_bytes += c_out * hw * hw * 4;
                c_in = c_out;
                idx += 1;
            }
        }
        layers.push(LayerShape::linear("fc1", 512 * 7 * 7, 4096, 1));
        layers.push(LayerShape::linear("fc2", 4096, 4096, 1));
        layers.push(LayerShape::linear("fc3", 4096, 1000, 1));
        ModelInventory {
            name: "VGG-16",
            layers,
            extra_params: 0,
            activation_bytes_per_sample: act_bytes,
            extra_fwd_flops_per_sample: 0.0,
        }
    }

    /// U-Net (init_features = 32) at 256² single-channel MRI slices — the
    /// brain-segmentation reference implementation of the paper.
    pub fn unet() -> Self {
        let w = 32usize;
        let mut layers = Vec::new();
        let mut act_bytes = 0usize;
        let mut enc =
            |name: &str, c_in: usize, c_out: usize, hw: usize, layers: &mut Vec<LayerShape>| {
                layers.push(LayerShape::conv(format!("{name}a"), c_in, c_out, 3, hw));
                layers.push(LayerShape::conv(format!("{name}b"), c_out, c_out, 3, hw));
                act_bytes += 2 * c_out * hw * hw * 4;
            };
        enc("enc1", 3, w, 256, &mut layers);
        enc("enc2", w, 2 * w, 128, &mut layers);
        enc("enc3", 2 * w, 4 * w, 64, &mut layers);
        enc("enc4", 4 * w, 8 * w, 32, &mut layers);
        enc("bottleneck", 8 * w, 16 * w, 16, &mut layers);
        // Decoder: upconv (2x2) then two convs on the concatenated features.
        let mut dec =
            |name: &str, c_high: usize, c_skip: usize, hw: usize, layers: &mut Vec<LayerShape>| {
                layers.push(LayerShape {
                    name: format!("{name}.upconv"),
                    a_dim: c_high * 4,
                    g_dim: c_skip,
                    spatial: hw * hw,
                    params: c_high * 4 * c_skip,
                });
                layers.push(LayerShape::conv(format!("{name}a"), c_skip * 2, c_skip, 3, hw));
                layers.push(LayerShape::conv(format!("{name}b"), c_skip, c_skip, 3, hw));
                act_bytes += 3 * c_skip * hw * hw * 4;
            };
        dec("dec4", 16 * w, 8 * w, 32, &mut layers);
        dec("dec3", 8 * w, 4 * w, 64, &mut layers);
        dec("dec2", 4 * w, 2 * w, 128, &mut layers);
        dec("dec1", 2 * w, w, 256, &mut layers);
        layers.push(LayerShape::conv("out", w, 1, 1, 256));

        ModelInventory {
            name: "U-Net",
            layers,
            extra_params: 0,
            activation_bytes_per_sample: act_bytes,
            extra_fwd_flops_per_sample: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_has_canonical_parameter_count() {
        // Torchvision ResNet-50: 25.56M parameters.
        let inv = ModelInventory::resnet50();
        let total = inv.total_params();
        assert!((24_000_000..27_000_000).contains(&total), "ResNet-50 params {total} out of range");
        // 53 preconditionable conv layers + 1 fc.
        assert_eq!(inv.layers.len(), 54);
    }

    #[test]
    fn resnet18_parameter_count() {
        // Torchvision ResNet-18: 11.69M parameters.
        let total = ModelInventory::resnet18().total_params();
        assert!((11_000_000..12_500_000).contains(&total), "{total}");
    }

    #[test]
    fn resnet_depth_orders_layer_count_and_params() {
        let p18 = ModelInventory::resnet18().total_params();
        let p50 = ModelInventory::resnet50().total_params();
        let p101 = ModelInventory::resnet101().total_params();
        let p152 = ModelInventory::resnet152().total_params();
        assert!(p18 < p50 && p50 < p101 && p101 < p152);
    }

    #[test]
    fn bert_large_parameter_count() {
        // BERT-Large: ~335M parameters (with the tied MLM head counted once).
        let total = ModelInventory::bert_large(512).total_params();
        assert!((320_000_000..380_000_000).contains(&total), "{total}");
        // 24 layers x 6 preconditionable Linear layers.
        assert_eq!(ModelInventory::bert_large(512).layers.len(), 144);
    }

    #[test]
    fn bert_factor_memory_matches_paper_scale() {
        // Paper Table 5: BERT-Large K-FAC overhead 1.3 GB (min, fp16) to
        // 3.8 GB (max, fp16). Min ≈ factors only; max adds eig caches.
        let inv = ModelInventory::bert_large(512);
        let factors_fp16 = inv.all_factor_bytes(2) as f64 / (1 << 20) as f64;
        assert!((700.0..2500.0).contains(&factors_fp16), "BERT fp16 factor MB = {factors_fp16}");
    }

    #[test]
    fn resnet50_flops_per_sample() {
        // ResNet-50 forward ≈ 4.1 GFLOPs (2 MACs = 2 FLOPs convention:
        // ~8.2 GFLOP). Accept the 3.5–9 G band to cover conventions.
        let f = ModelInventory::resnet50().fwd_flops_per_sample();
        assert!((3.5e9..9.5e9).contains(&f), "ResNet-50 fwd flops {f}");
    }

    #[test]
    fn mask_rcnn_overhead_in_papers_band() {
        // Paper Table 5: Mask R-CNN K-FAC overhead ≈ 97–190 MB (fp32).
        let inv = ModelInventory::mask_rcnn_roi_heads();
        let factors = inv.all_factor_bytes(4) as f64 / (1 << 20) as f64;
        let max: f64 = inv.layers.iter().map(|l| l.eig_bytes(4)).sum::<usize>() as f64
            / (1 << 20) as f64
            + factors;
        assert!((50.0..250.0).contains(&factors), "min overhead {factors} MB");
        assert!((100.0..500.0).contains(&max), "max overhead {max} MB");
    }

    #[test]
    fn vgg16_parameter_count_and_fc1_dominance() {
        // Torchvision VGG-16: 138.36M parameters.
        let inv = ModelInventory::vgg16();
        let total = inv.total_params();
        assert!((135_000_000..142_000_000).contains(&total), "{total}");
        assert_eq!(inv.layers.len(), 16);
        // fc1's A factor (25089²) dwarfs every other factor — the worst-case
        // single eigendecomposition job the LPT scheduler can face.
        let fc1 = inv.layers.iter().find(|l| l.name == "fc1").unwrap();
        let biggest_other =
            inv.layers.iter().filter(|l| l.name != "fc1").map(|l| l.factor_bytes(4)).max().unwrap();
        assert!(fc1.factor_bytes(4) > 10 * biggest_other);
    }

    #[test]
    fn unet_is_conv_only() {
        let inv = ModelInventory::unet();
        assert!(inv.layers.iter().all(|l| !l.name.contains("fc")));
        assert_eq!(inv.extra_params, 0);
        // mateuszbuda U-Net (features=32): ~7.8M params.
        let total = inv.total_params();
        assert!((6_000_000..9_000_000).contains(&total), "{total}");
    }

    #[test]
    fn eig_flops_dominated_by_largest_factor() {
        let inv = ModelInventory::bert_large(512);
        let ffn2 = inv.layers.iter().find(|l| l.name.ends_with("ffn2")).unwrap();
        // a_dim 4097 dominates: 9·4097³ ≈ 6.2e11.
        assert!(ffn2.eig_flops() > 5e11);
    }
}

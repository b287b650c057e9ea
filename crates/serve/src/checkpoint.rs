//! Byte-level job checkpoint serialization.
//!
//! A [`JobCheckpoint`] captures everything a paused training job needs to
//! resume **on a different world size**: the flat model parameters, the
//! first-order optimizer's momentum velocity, the K-FAC preconditioner
//! state (running factor averages as packed lower triangles, cached
//! decompositions, the optimizer step counter — see
//! `kaisa_core::KfacCheckpoint`), and the global step the job paused at. Data-shard progress needs no state at
//! all: the `ShardSampler` is a pure function of `(world, rank, seed,
//! epoch)`, so the resumed world re-derives its batches from the step
//! index alone.
//!
//! The encoding is a deliberately simple little-endian format with no
//! external dependencies:
//!
//! ```text
//! magic    8 bytes  "KAISAJOB"
//! version  u32      currently 4
//! step     u64
//! params   u64 count, then count × u32   (f32::to_bits, LE)
//! velocity u64 count, then count × u32
//! kfac     u8 flag  (0 = none)
//!   steps  u64
//!   layers u64 count, then per layer:
//!     name    u64 byte-length + UTF-8 bytes
//!     a_dim   u64
//!     g_dim   u64
//!     fields  5 × [u8 flag; if 1: u64 count + count × u32]
//!             order: factor_a factor_g qa qg outer
//!             (`LayerCheckpoint`'s field indices); each count must be
//!             `LayerCheckpoint::field_len` of that field: the factors
//!             are packed lower triangles (`n(n+1)/2`), the eigenbases
//!             square, outer `g_dim × a_dim`
//! ```
//!
//! Version 1 streams (ten fields per layer), version 2 streams (square
//! factors) and version 3 streams (six fields per layer) are rejected with
//! [`CheckpointError::UnsupportedVersion`], not misread.
//!
//! Floats are stored as raw IEEE-754 bit patterns, so encode→decode→encode
//! is bytewise idempotent and restore is bitwise transparent — including
//! for fp16-quantized factor values, which live in `f32` storage whose
//! bits round-trip unchanged.

use kaisa_core::{KfacCheckpoint, LayerCheckpoint};

const MAGIC: &[u8; 8] = b"KAISAJOB";
const VERSION: u32 = 4;

/// A decode failure: the byte stream is not a valid job checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stream does not start with the checkpoint magic.
    BadMagic,
    /// The stream's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The stream ended before a declared field finished.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// Extra bytes follow a structurally complete checkpoint.
    TrailingBytes(usize),
    /// A structural invariant failed (e.g. a non-UTF-8 layer name, or a
    /// field whose length contradicts its layer's dimensions).
    Invalid(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a KAISA job checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {VERSION})")
            }
            CheckpointError::Truncated { needed, remaining } => {
                write!(f, "truncated checkpoint: needed {needed} more bytes, had {remaining}")
            }
            CheckpointError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after a complete checkpoint")
            }
            CheckpointError::Invalid(what) => write!(f, "invalid checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Everything a paused job needs to resume training, possibly at a
/// different world size.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCheckpoint {
    /// Global optimizer step the job paused at (steps completed).
    pub step: u64,
    /// Flat model parameters (`Model::params_flat` order).
    pub params: Vec<f32>,
    /// SGD momentum velocity; empty if momentum never stepped.
    pub velocity: Vec<f32>,
    /// K-FAC preconditioner state; `None` for first-order-only jobs.
    pub kfac: Option<KfacCheckpoint>,
}

impl JobCheckpoint {
    /// Serialize to the stable byte format described in the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            MAGIC.len()
                + 12
                + 8
                + 4 * self.params.len()
                + 8
                + 4 * self.velocity.len()
                + 1
                + self.kfac.as_ref().map_or(0, |k| 64 + 4 * k.element_count()),
        );
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, self.step);
        put_f32s(&mut out, &self.params);
        put_f32s(&mut out, &self.velocity);
        match &self.kfac {
            None => out.push(0),
            Some(kfac) => {
                out.push(1);
                put_u64(&mut out, kfac.steps);
                put_u64(&mut out, kfac.layers.len() as u64);
                for layer in &kfac.layers {
                    put_u64(&mut out, layer.name.len() as u64);
                    out.extend_from_slice(layer.name.as_bytes());
                    put_u64(&mut out, layer.a_dim as u64);
                    put_u64(&mut out, layer.g_dim as u64);
                    for field in layer.fields() {
                        match field {
                            None => out.push(0),
                            Some(data) => {
                                out.push(1);
                                put_f32s(&mut out, data);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Decode a byte stream produced by [`JobCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<JobCheckpoint, CheckpointError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let step = r.u64()?;
        let params = r.f32s()?;
        let velocity = r.f32s()?;
        let kfac = match r.u8()? {
            0 => None,
            1 => {
                let steps = r.u64()?;
                let layer_count = r.len()?;
                let mut layers = Vec::with_capacity(layer_count.min(1 << 16));
                for _ in 0..layer_count {
                    let name_len = r.len()?;
                    let name = std::str::from_utf8(r.take(name_len)?)
                        .map_err(|_| CheckpointError::Invalid("layer name is not UTF-8"))?
                        .to_string();
                    let a_dim = r.len()?;
                    let g_dim = r.len()?;
                    let mut layer = LayerCheckpoint::new(name, a_dim, g_dim);
                    for f in 0..LayerCheckpoint::FIELD_COUNT {
                        let data = match r.u8()? {
                            0 => continue,
                            1 => r.f32s()?,
                            _ => return Err(CheckpointError::Invalid("field flag is not 0/1")),
                        };
                        if data.len() != layer.field_len(f) {
                            return Err(CheckpointError::Invalid(
                                "field length contradicts the layer's dimensions",
                            ));
                        }
                        *layer.field_mut(f) = Some(data);
                    }
                    layers.push(layer);
                }
                Some(KfacCheckpoint { steps, layers })
            }
            _ => return Err(CheckpointError::Invalid("kfac flag is not 0/1")),
        };
        if r.pos != bytes.len() {
            return Err(CheckpointError::TrailingBytes(bytes.len() - r.pos));
        }
        Ok(JobCheckpoint { step, params, velocity, kfac })
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    put_u64(out, data.len() as u64);
    for &x in data {
        put_u32(out, x.to_bits());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let remaining = self.buf.len() - self.pos;
        if n > remaining {
            return Err(CheckpointError::Truncated { needed: n, remaining });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// A u64 that will be used as an in-memory length: reject values that
    /// could not possibly be backed by the remaining bytes, so corrupt
    /// streams fail cleanly instead of attempting huge allocations.
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if v > remaining {
            return Err(CheckpointError::Truncated {
                needed: v as usize,
                remaining: remaining as usize,
            });
        }
        Ok(v as usize)
    }

    fn f32s(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let count = {
            let v = self.u64()?;
            let remaining = (self.buf.len() - self.pos) as u64;
            if v.saturating_mul(4) > remaining {
                return Err(CheckpointError::Truncated {
                    needed: v.saturating_mul(4) as usize,
                    remaining: remaining as usize,
                });
            }
            v as usize
        };
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(f32::from_bits(self.u32()?));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> JobCheckpoint {
        JobCheckpoint {
            step: 42,
            params: vec![1.5, -2.25, f32::MIN_POSITIVE, 0.0, -0.0],
            velocity: vec![0.125, 3.0],
            kfac: Some(KfacCheckpoint {
                steps: 42,
                layers: vec![LayerCheckpoint {
                    name: "fc0".to_string(),
                    a_dim: 2,
                    g_dim: 1,
                    factor_a: Some(vec![1.0, 0.5, 2.0]),
                    factor_g: Some(vec![3.0]),
                    qa: None,
                    qg: None,
                    outer: Some(vec![0.25, 0.75]),
                }],
            }),
        }
    }

    #[test]
    fn roundtrip_is_bytewise_stable() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let decoded = JobCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, ckpt);
        // save → load → save is the identity on bytes.
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn no_kfac_roundtrips() {
        let ckpt = JobCheckpoint { step: 7, params: vec![1.0], velocity: vec![], kfac: None };
        let bytes = ckpt.to_bytes();
        assert_eq!(JobCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
        assert_eq!(JobCheckpoint::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    }

    #[test]
    fn nonfinite_bit_patterns_survive() {
        let mut ckpt = sample();
        ckpt.params = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let bytes = ckpt.to_bytes();
        let decoded = JobCheckpoint::from_bytes(&bytes).unwrap();
        for (a, b) in ckpt.params.iter().zip(&decoded.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().to_bytes();
        assert_eq!(JobCheckpoint::from_bytes(b"NOTAJOB!rest"), Err(CheckpointError::BadMagic));
        // Truncation anywhere fails cleanly.
        for cut in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                JobCheckpoint::from_bytes(&bytes[..cut]),
                Err(CheckpointError::Truncated { .. })
            ));
        }
        // Trailing garbage is rejected, not silently ignored.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0, 1, 2]);
        assert_eq!(JobCheckpoint::from_bytes(&long), Err(CheckpointError::TrailingBytes(3)));
        // A declared length far past the end of the stream must not allocate.
        let mut huge = bytes.clone();
        let params_off = MAGIC.len() + 4 + 8;
        huge[params_off..params_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(JobCheckpoint::from_bytes(&huge), Err(CheckpointError::Truncated { .. })));
    }

    #[test]
    fn version_gate() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(JobCheckpoint::from_bytes(&bytes), Err(CheckpointError::UnsupportedVersion(99)));
        // Version 1 (ten fields per layer), version 2 (square factors) and
        // version 3 (six fields per layer) are refused, not misread.
        for old in [1u32, 2, 3] {
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                JobCheckpoint::from_bytes(&bytes),
                Err(CheckpointError::UnsupportedVersion(old))
            );
        }
    }

    #[test]
    fn field_shorter_than_its_dimensions_is_rejected() {
        // A hand-built stream: one layer with a_dim 5 whose `qa` carries 3
        // elements instead of 25. Restoring it would panic in
        // `Matrix::from_vec`; decoding must stop it with a typed error.
        let mut bytes = MAGIC.to_vec();
        put_u32(&mut bytes, VERSION);
        put_u64(&mut bytes, 1); // step
        put_f32s(&mut bytes, &[]); // params
        put_f32s(&mut bytes, &[]); // velocity
        bytes.push(1); // kfac present
        put_u64(&mut bytes, 1); // kfac steps
        put_u64(&mut bytes, 1); // one layer
        put_u64(&mut bytes, 2);
        bytes.extend_from_slice(b"fc");
        put_u64(&mut bytes, 5); // a_dim
        put_u64(&mut bytes, 2); // g_dim
        bytes.extend_from_slice(&[0, 0]); // factor_a, factor_g absent
        bytes.push(1);
        put_f32s(&mut bytes, &[1.0, 2.0, 3.0]); // qa: 3 of 25 elements
        bytes.extend_from_slice(&[0, 0]); // qg, outer absent
        assert!(matches!(JobCheckpoint::from_bytes(&bytes), Err(CheckpointError::Invalid(_))));
    }

    /// Two layers with every K-FAC field present: the mutation fuzz's seed
    /// stream, so edits land in every kind of field.
    fn full_sample() -> JobCheckpoint {
        let layer = |name: &str, a_dim: usize, g_dim: usize| {
            let mut l = LayerCheckpoint::new(name.to_string(), a_dim, g_dim);
            for f in 0..LayerCheckpoint::FIELD_COUNT {
                *l.field_mut(f) = Some((0..l.field_len(f)).map(|i| i as f32 - 1.5).collect());
            }
            l
        };
        JobCheckpoint {
            step: 9,
            params: vec![0.5, -1.0, 2.0],
            velocity: vec![0.25],
            kfac: Some(KfacCheckpoint {
                steps: 9,
                layers: vec![layer("fc0", 3, 2), layer("fc1", 2, 3)],
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn mutated_streams_fail_typed_or_decode_canonically(
            edits in prop::collection::vec((0u32..3, any::<usize>(), any::<u32>()), 1..5),
        ) {
            // Byte overwrites, truncations and insertions at random
            // offsets. A panic fails the case; a stream that decodes must
            // re-encode to exactly the mutated bytes (the format is
            // canonical).
            let mut bytes = full_sample().to_bytes();
            for &(kind, at, value) in &edits {
                match kind {
                    0 if !bytes.is_empty() => {
                        let i = at % bytes.len();
                        bytes[i] = value as u8;
                    }
                    1 => bytes.truncate(at % (bytes.len() + 1)),
                    _ => bytes.insert(at % (bytes.len() + 1), value as u8),
                }
            }
            if let Ok(decoded) = JobCheckpoint::from_bytes(&bytes) {
                prop_assert_eq!(decoded.to_bytes(), bytes);
            }
        }
    }
}

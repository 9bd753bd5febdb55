//! Lock-free shared-weight inference entry point, split out of
//! [`crate::framework`].
//!
//! [`run_adarnet_case`](crate::framework::run_adarnet_case) couples one
//! model to one physics solve — the right shape for reproducing the
//! paper's tables, but not for serving, where many threads hold one
//! trained model and submit batches concurrently. [`InferenceEngine`]
//! owns a [`FrozenAdarNet`] — the immutable weight plane, with GEMM
//! A-panels pre-packed and the deconv flip-transpose applied once at
//! construction — plus its normalization, and exposes `&self`
//! inference (normalize → score → bin → per-bin decode) with typed
//! errors so a bad request cannot take down a worker.
//!
//! There is no model lock: activations come from the thread-local
//! workspace pool, so any number of threads share one engine (one
//! resident weight copy) behind an `Arc` and decode concurrently (see
//! the `adarnet-serve` crate).

use adarnet_tensor::Tensor;

use crate::checkpoint::{self, ModelCheckpoint};
use crate::loss::NormStats;
use crate::network::{AdarNet, AdarNetConfig, FrozenAdarNet, Prediction};
use crate::precision::Precision;
use crate::ranker::RankerError;

/// Why an inference request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The scorer's output could not be binned (empty grid / NaN scores).
    Ranker(RankerError),
    /// A checkpoint could not be restored into a model.
    Checkpoint(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Ranker(e) => write!(f, "ranker: {e}"),
            EngineError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RankerError> for EngineError {
    fn from(e: RankerError) -> EngineError {
        EngineError::Ranker(e)
    }
}

/// A trained model, frozen for inference, plus its normalization —
/// packaged for concurrent lock-free use. One engine = one resident
/// weight copy shared by every thread that holds it.
pub struct InferenceEngine {
    cfg: AdarNetConfig,
    norm: NormStats,
    frozen: FrozenAdarNet,
    /// Weight snapshot taken at construction; [`InferenceEngine::checkpoint`]
    /// serves from it without touching the frozen plane.
    ckpt: ModelCheckpoint,
}

impl InferenceEngine {
    /// Wrap a trained model and its dataset normalization. The model's
    /// weights are snapshotted (for [`InferenceEngine::checkpoint`]) and
    /// frozen: GEMM A-panels pack once here, under the `prepack_ns`
    /// span, and never again on the request path. The resident
    /// frozen-weight footprint is published on the
    /// `engine_weight_bytes` gauge, and whether the vectorized kernel
    /// plane is live on the `engine_backend_simd` gauge (1 = vector
    /// micro-kernels run, 0 = scalar reference plane), with the width
    /// of the GEMM register tile it runs on `engine_tile_cols` (64 = the
    /// AVX-512 4×64 tile, 16 = the AVX2 or scalar 4×16 tile).
    pub fn new(model: AdarNet, norm: NormStats) -> InferenceEngine {
        let ckpt = checkpoint::snapshot(&model, &norm);
        let frozen = {
            let _span = adarnet_obs::span!("prepack_ns");
            model.freeze()
        };
        adarnet_obs::gauge!("engine_weight_bytes").set(frozen.weight_bytes() as f64);
        adarnet_obs::gauge!("engine_backend_simd").set(if frozen.device().is_simd_active() {
            1.0
        } else {
            0.0
        });
        adarnet_obs::gauge!("engine_tile_cols").set(frozen.device().gemm_tile().1 as f64);
        InferenceEngine {
            cfg: model.cfg,
            norm,
            frozen,
            ckpt,
        }
    }

    /// Restore an engine from a checkpoint.
    pub fn from_checkpoint(ckpt: &ModelCheckpoint) -> Result<InferenceEngine, EngineError> {
        let (model, norm) = checkpoint::restore(ckpt).map_err(EngineError::Checkpoint)?;
        Ok(InferenceEngine::new(model, norm))
    }

    /// The weight snapshot this engine was built from.
    pub fn checkpoint(&self) -> ModelCheckpoint {
        self.ckpt.clone()
    }

    /// Static model configuration.
    pub fn config(&self) -> AdarNetConfig {
        self.cfg
    }

    /// The normalization applied to raw LR fields before inference.
    pub fn norm(&self) -> &NormStats {
        &self.norm
    }

    /// The frozen weight plane, for callers that drive the plan/decode
    /// stages themselves (e.g. patch-cached batch inference).
    pub fn frozen(&self) -> &FrozenAdarNet {
        &self.frozen
    }

    /// Resident frozen-weight bytes (scorer + decoder, packed panels
    /// included).
    pub fn weight_bytes(&self) -> usize {
        self.frozen.weight_bytes()
    }

    /// The compute backend the frozen plane is pinned to.
    pub fn device(&self) -> adarnet_nn::Device {
        self.frozen.device()
    }

    /// The weight-plane precision the frozen plane was built at.
    /// Read by `ledger/src/workloads/net.rs` (`precision().name()`).
    pub fn precision(&self) -> Precision {
        Precision::F32
    }

    /// Canonical name of the active backend (`cpu_scalar` /
    /// `cpu_simd`), for stats endpoints and logs.
    pub fn backend_name(&self) -> &'static str {
        self.frozen.device().name()
    }

    /// Infer one raw (physical-units) `(C, H, W)` LR field: normalize,
    /// then [`FrozenAdarNet::try_predict`].
    ///
    /// The returned [`Prediction`] is backed by workspace-pool buffers.
    /// After warmup, a steady-state loop of `infer` +
    /// [`Prediction::recycle`] performs zero data-plane heap allocations:
    /// every tensor buffer (normalized input, scorer/decoder
    /// activations, im2col panels, patch outputs) is drawn from and
    /// returned to the workspace pool (see `adarnet_tensor::workspace`;
    /// pinned by `tests/zero_alloc.rs`).
    pub fn infer(&self, lr_field: &Tensor<f32>) -> Result<Prediction, EngineError> {
        let normalized = self.norm.normalize(lr_field);
        let pred = self.frozen.try_predict(&normalized);
        normalized.recycle();
        Ok(pred?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_tensor::Shape;

    fn sample(h: usize, w: usize, phase: f32) -> Tensor<f32> {
        Tensor::from_vec(
            Shape::d3(4, h, w),
            (0..4 * h * w)
                .map(|i| ((i as f32) * 0.017 + phase).sin())
                .collect(),
        )
    }

    fn tiny_cfg(seed: u64) -> AdarNetConfig {
        AdarNetConfig {
            ph: 8,
            pw: 8,
            seed,
            ..AdarNetConfig::default()
        }
    }

    fn tiny_engine(seed: u64) -> InferenceEngine {
        InferenceEngine::new(AdarNet::new(tiny_cfg(seed)), NormStats::identity())
    }

    #[test]
    fn engine_matches_direct_predict() {
        let engine = tiny_engine(11);
        let x = sample(16, 32, 0.0);
        let via_engine = engine.infer(&x).unwrap();
        // Same seed ⇒ same weights: under identity normalization the
        // engine adds nothing to the frozen model it wraps.
        let direct = AdarNet::new(tiny_cfg(11)).freeze().try_predict(&x).unwrap();
        assert_eq!(via_engine.binning.bin_of_patch, direct.binning.bin_of_patch);
        for (a, b) in via_engine.patches.iter().zip(&direct.patches) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn checkpoint_roundtrip_is_bitwise_identical() {
        let engine = tiny_engine(13);
        let x = sample(16, 16, 0.4);
        let original = engine.infer(&x).unwrap();
        let restored = InferenceEngine::from_checkpoint(&engine.checkpoint()).unwrap();
        let pred = restored.infer(&x).unwrap();
        assert_eq!(pred.binning.bin_of_patch, original.binning.bin_of_patch);
        assert_eq!(pred.patches, original.patches);
    }

    #[test]
    fn many_threads_share_one_engine_bitwise() {
        // The tentpole contract: one engine, one weight copy, no lock —
        // every thread gets the same bits as a lone caller.
        let engine = std::sync::Arc::new(tiny_engine(14));
        let x = sample(16, 16, 0.7);
        let want = engine.infer(&x).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let e = engine.clone();
            let xs = x.clone();
            handles.push(std::thread::spawn(move || e.infer(&xs).unwrap()));
        }
        for h in handles {
            let got = h.join().unwrap();
            assert_eq!(got.binning.bin_of_patch, want.binning.bin_of_patch);
            for (a, b) in got.patches.iter().zip(&want.patches) {
                assert_eq!(a, b);
            }
        }
        // One weight copy: the packed panels (61,848 floats, the 16->1
        // scorer conv padded to a 4-row block) and the biases (213).
        assert_eq!(engine.weight_bytes(), (61_848 + 213) * 4);
    }

    #[test]
    fn nan_input_does_not_panic() {
        // NaN never survives the scorer: ReLU is `x.max(0.0)` and max-pool
        // uses `>` comparisons, both of which drop NaN, so a poisoned field
        // still yields finite patch scores and a well-formed prediction.
        // The non-finite guard itself sits in the ranker (see
        // `ranker::tests::try_bin_scores_rejects_non_finite`); here we pin
        // the engine-level contract: garbage in, typed result out, no panic.
        // Rejecting the garbage is the boundary's job: the wire front end
        // answers non-finite fields `bad_request` before they reach an
        // engine (`adarnet_serve::Server::field_matches_model`).
        let engine = tiny_engine(15);
        let mut x = sample(16, 16, 0.0);
        x.as_mut_slice().fill(f32::NAN);
        match engine.infer(&x) {
            Ok(pred) => assert_eq!(pred.binning.bin_of_patch.len(), 2 * 2),
            Err(EngineError::Ranker(_)) => {} // also acceptable: typed, not a panic
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
    }

    #[test]
    fn ranker_errors_convert_to_engine_errors() {
        let e = EngineError::from(RankerError::EmptyScores);
        assert_eq!(e, EngineError::Ranker(RankerError::EmptyScores));
        assert!(e.to_string().contains("ranker"));
    }
}

//! The assembled ADARNet DNN (Figure 3): scorer → ranker → per-bin bicubic
//! refinement + coordinate concatenation → shared decoder.
//!
//! The network takes a 4-channel LR field and produces a **non-uniform**
//! output: one 4-channel patch per input patch, each at its own target
//! resolution `2^n x` per side (`4^n x` cells) chosen by the ranker.

use adarnet_amr::{PatchLayout, RefinementMap};
use adarnet_nn::{bicubic_resize3, Device};
use adarnet_tensor::{Shape, Tensor};

use crate::decoder::{Decoder, FrozenDecoder};
use crate::ranker::{Binning, Ranker, RankerError};
use crate::scorer::{FrozenScorer, Scorer, ScorerOutput};

/// Static configuration of the DNN.
#[derive(Debug, Clone, Copy)]
pub struct AdarNetConfig {
    /// Input/output flow channels (4: U, V, p, nu_tilde).
    pub in_channels: usize,
    /// Patch extent (16 x 16 in the paper, §4.2).
    pub ph: usize,
    /// Patch width.
    pub pw: usize,
    /// Number of bins / target resolutions (4 in the paper).
    pub bins: u8,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for AdarNetConfig {
    fn default() -> Self {
        AdarNetConfig {
            in_channels: 4,
            ph: 16,
            pw: 16,
            bins: 4,
            seed: 0,
        }
    }
}

/// The ADARNet model: trainable scorer and decoder around the
/// non-trainable ranker.
pub struct AdarNet {
    /// Configuration.
    pub cfg: AdarNetConfig,
    /// Scorer network (Figure 4).
    pub scorer: Scorer,
    /// Ranker (binning, §3.1).
    pub ranker: Ranker,
    /// Shared decoder (Figure 5).
    pub decoder: Decoder,
    /// Compute backend every kernel in the scorer and decoder routes
    /// through; [`Device::detect`] at construction, changed via
    /// [`AdarNet::set_device`].
    device: Device,
}

/// Cached products of the scorer stage, consumed by per-bin decoding.
pub struct ForwardPlan {
    /// Patch-grid geometry of the input.
    pub layout: PatchLayout,
    /// `(1, 1, NPy, NPx)` softmax scores.
    pub scores: Tensor<f32>,
    /// `(C+1, H, W)` input field with the latent channel appended.
    pub aug: Tensor<f32>,
    /// Ranker output.
    pub binning: Binning,
}

impl ForwardPlan {
    /// Build the decoder input for one patch: extract the augmented patch,
    /// bicubically refine it to the bin's target resolution, and append
    /// the two global-coordinate channels. Uses only plan state, so
    /// per-patch inputs can be assembled concurrently from any thread.
    pub fn decoder_input(&self, patch_idx: usize) -> Tensor<f32> {
        let layout = self.layout;
        let (py, px) = layout.coords(patch_idx);
        let level = self.binning.level_of(patch_idx);
        let raw =
            self.aug
                .pooled_extract_patch(py * layout.ph, px * layout.pw, layout.ph, layout.pw);
        let (th, tw) = layout.patch_extent(level);
        let refined = if level == 0 {
            raw
        } else {
            let r = bicubic_resize3(&raw, th, tw);
            raw.recycle();
            r
        };
        let c_aug = refined.dim(0);
        // Pooled scratch: the refined channels are copied in below and the
        // two coordinate channels are fully written by the loops.
        let mut with_coords = Tensor::<f32>::pooled_scratch(Shape::d3(c_aug + 2, th, tw));
        with_coords.as_mut_slice()[..c_aug * th * tw].copy_from_slice(refined.as_slice());
        refined.recycle();
        // Global normalized coordinates of each pixel center: x varies
        // along a row only, so one row is computed and copied down; y is
        // constant along a row.
        let fh = (layout.coarse_h()) as f32;
        let fw = (layout.coarse_w()) as f32;
        let scale = (1usize << level) as f32;
        let (xs, ys) = with_coords.as_mut_slice()[c_aug * th * tw..].split_at_mut(th * tw);
        let (x_row, x_rest) = xs.split_at_mut(tw);
        for (j, x) in x_row.iter_mut().enumerate() {
            *x = (px as f32 * layout.pw as f32 + (j as f32 + 0.5) / scale) / fw;
        }
        for row in x_rest.chunks_exact_mut(tw) {
            row.copy_from_slice(x_row);
        }
        for (i, row) in ys.chunks_exact_mut(tw).enumerate() {
            row.fill((py as f32 * layout.ph as f32 + (i as f32 + 0.5) / scale) / fh);
        }
        with_coords
    }
}

/// The network's non-uniform prediction for one sample.
#[derive(Clone)]
pub struct Prediction {
    /// Patch layout.
    pub layout: PatchLayout,
    /// Per-patch refinement decisions.
    pub binning: Binning,
    /// Row-major per-patch outputs, each `(4, ph * 2^n, pw * 2^n)`.
    pub patches: Vec<Tensor<f32>>,
    /// The scorer's scores (diagnostics).
    pub scores: Tensor<f32>,
}

impl AdarNet {
    /// Build the model.
    pub fn new(cfg: AdarNetConfig) -> AdarNet {
        AdarNet {
            cfg,
            scorer: Scorer::new(cfg.in_channels, cfg.ph, cfg.pw, cfg.seed),
            ranker: Ranker::new(cfg.bins),
            // Decoder input: flow channels + latent + 2 coordinates.
            decoder: Decoder::new(cfg.in_channels + 3, cfg.seed + 100),
            device: Device::detect(),
        }
    }

    /// The compute backend this model's kernels run on.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Route every scorer and decoder kernel to `device`. Freezing
    /// afterwards yields a [`FrozenAdarNet`] pinned to the same backend.
    pub fn set_device(&mut self, device: Device) {
        self.device = device;
        self.scorer.set_device(device);
        self.decoder.set_device(device);
    }

    /// Freeze into the immutable, `Sync` [`FrozenAdarNet`], the only
    /// way to run inference: scorer and decoder weights are packed once
    /// (GEMM A-panels, the deconv flip-transpose), the `Copy` ranker is
    /// copied, and every entry point becomes `&self`. What it computes
    /// is bitwise what the training forward ([`AdarNet::try_plan`] +
    /// [`Decoder::forward`]) computes on the same weights — pinned by
    /// `tests/train_serve.rs`.
    pub fn freeze(&self) -> FrozenAdarNet {
        FrozenAdarNet {
            cfg: self.cfg,
            scorer: self.scorer.freeze(),
            ranker: self.ranker,
            decoder: self.decoder.freeze(),
            device: self.device,
        }
    }

    /// Run the scorer and ranker on one `(C, H, W)` sample.
    pub fn plan(&mut self, x: &Tensor<f32>) -> ForwardPlan {
        match self.try_plan(x) {
            Ok(plan) => plan,
            #[expect(
                clippy::panic,
                reason = "the infallible adapter over a typed error: its callers feed fields they synthesized themselves, so an error here is a bug to stop on, not a condition to handle; serving goes through the try_ variant"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`AdarNet::plan`], the trainer's forward: the
    /// scorer caches its activations for [`Scorer::backward`]. Ranker
    /// failures (empty patch grid, non-finite scorer output) surface as
    /// a typed error instead of a panic; shape mismatches remain
    /// assertions — those are caller bugs.
    pub fn try_plan(&mut self, x: &Tensor<f32>) -> Result<ForwardPlan, RankerError> {
        let scorer = &mut self.scorer;
        plan_sample(&self.cfg, &self.ranker, x, |x4| scorer.forward(x4))
    }
}

/// Scorer → ranker → latent augmentation for one `(C, H, W)` sample,
/// written once for the trainer's caching forward
/// ([`AdarNet::try_plan`]) and the frozen plane
/// ([`FrozenAdarNet::try_plan`]); the scorer call is all that differs.
/// All plan tensors are workspace-pooled; recycle `plan.aug` and
/// `plan.scores` (or hand them to a [`Prediction`]) to keep
/// steady-state loops allocation-free.
fn plan_sample(
    cfg: &AdarNetConfig,
    ranker: &Ranker,
    x: &Tensor<f32>,
    scorer: impl FnOnce(&Tensor<f32>) -> ScorerOutput,
) -> Result<ForwardPlan, RankerError> {
    assert_eq!(x.shape().rank(), 3, "plan expects a (C, H, W) sample");
    assert_eq!(x.dim(0), cfg.in_channels, "channel count mismatch");
    let (c, h, w) = (x.dim(0), x.dim(1), x.dim(2));
    let layout = PatchLayout::for_field(h, w, cfg.ph, cfg.pw);
    let x4 = x.pooled_copy().reshape(Shape::d4(1, c, h, w));
    let out = {
        let _span = adarnet_obs::span!("stage_scorer");
        scorer(&x4)
    };
    x4.recycle();
    let binning = {
        let _span = adarnet_obs::span!("stage_ranker");
        ranker.try_bin_tensor(&out.scores)?
    };
    crate::observe::note_bin_groups(&binning.groups);

    // Augment: append the latent channel to the input field. Every
    // element is overwritten, so pooled scratch contents are fine.
    let mut aug = Tensor::<f32>::pooled_scratch(Shape::d3(c + 1, h, w));
    aug.as_mut_slice()[..c * h * w].copy_from_slice(x.as_slice());
    aug.as_mut_slice()[c * h * w..].copy_from_slice(out.latent.as_slice());
    out.latent.recycle();

    Ok(ForwardPlan {
        layout,
        scores: out.scores,
        aug,
        binning,
    })
}

/// The frozen, `Sync` inference twin of [`AdarNet`], produced by
/// [`AdarNet::freeze`].
///
/// One weight copy — scorer and decoder GEMM A-panels pre-packed, the
/// deconv flip-transpose applied once — serves any number of threads:
/// every entry point is `&self` and activations come from the
/// workspace pool, so concurrency is the caller's (serve workers and
/// connection threads share one instance behind an `Arc`); a single
/// call decodes its `(sample, bin)` batches one after another. Each
/// bin's decoder output is per-item independent of batch composition
/// (pinned by `predict_batch_matches_per_sample_predict`), so cutting
/// the batches along `(sample, bin)` changes nothing but wall-clock.
pub struct FrozenAdarNet {
    cfg: AdarNetConfig,
    scorer: FrozenScorer,
    ranker: Ranker,
    decoder: FrozenDecoder,
    device: Device,
}

/// Output of one `(sample, bin)` decode: `(patch_idx, patch)` pairs for
/// every patch the ranker placed in that bin.
type DecodedBin = Vec<(usize, Tensor<f32>)>;

impl FrozenAdarNet {
    /// Model configuration.
    pub fn cfg(&self) -> &AdarNetConfig {
        &self.cfg
    }

    /// The compute backend this frozen plane was pinned to at
    /// [`AdarNet::freeze`] time. The serving gauge
    /// `engine_backend_simd` reports whether it actually runs the
    /// vectorized micro-kernels on this machine.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Resident frozen-weight bytes (scorer + decoder). The serving
    /// gauge `engine_weight_bytes` reports this.
    pub fn weight_bytes(&self) -> usize {
        self.scorer.weight_bytes() + self.decoder.weight_bytes()
    }

    /// The shared frozen decoder, for callers that compose their own
    /// decoder batches (e.g. cache-aware serving, which decodes only
    /// cache misses).
    pub fn decoder(&self) -> &FrozenDecoder {
        &self.decoder
    }

    /// Run the scorer and ranker on one `(C, H, W)` sample — the
    /// `&self` twin of [`AdarNet::try_plan`]: same spans, same pooled
    /// tensors, same values, no backprop caches.
    pub fn try_plan(&self, x: &Tensor<f32>) -> Result<ForwardPlan, RankerError> {
        plan_sample(&self.cfg, &self.ranker, x, |x4| self.scorer.forward(x4))
    }

    /// Decode one bin of one plan: assemble the decoder batch from the
    /// plan's augmented field, run the shared frozen decoder, and split
    /// the output back into `(patch_idx, patch)` pairs.
    fn decode_bin(&self, plan: &ForwardPlan, bin: u8) -> DecodedBin {
        let group = &plan.binning.groups[bin as usize];
        let inputs: Vec<Tensor<f32>> = group.iter().map(|&i| plan.decoder_input(i)).collect();
        let batch = Tensor::pooled_stack(&inputs);
        for dec_in in inputs {
            dec_in.recycle();
        }
        let out = {
            let _span = adarnet_obs::span!("stage_decoder", bin = bin);
            self.decoder.forward(&batch)
        };
        batch.recycle();
        adarnet_obs::counter!("core_decode_tasks_total").inc();
        adarnet_obs::counter!("core_decode_patches_total").add(group.len() as u64);
        let split = group
            .iter()
            .enumerate()
            .map(|(k, &i)| (i, out.pooled_image(k)))
            .collect();
        out.recycle();
        split
    }

    /// Decode every non-empty bin of `plan`, in bin order, one decoder
    /// batch per bin (the paper's dynamic batch size), and close the
    /// plan into its prediction.
    fn decode_plan(&self, plan: ForwardPlan) -> Prediction {
        let mut patches: Vec<Option<Tensor<f32>>> =
            (0..plan.layout.num_patches()).map(|_| None).collect();
        let decoded = (0..self.cfg.bins)
            .filter(|&bin| !plan.binning.groups[bin as usize].is_empty())
            .flat_map(|bin| self.decode_bin(&plan, bin));
        for (i, p) in decoded {
            patches[i] = Some(p);
        }
        plan.aug.recycle();
        #[expect(
            clippy::expect_used,
            reason = "post-condition of the per-bin assembly loop directly above: every patch index is written exactly once before the take(); structurally unreachable"
        )]
        let patches = patches
            .into_iter()
            .map(|p| p.expect("per-bin loops fill every patch"))
            .collect();
        Prediction {
            layout: plan.layout,
            binning: plan.binning,
            patches,
            scores: plan.scores,
        }
    }

    /// Full `&self` inference for one sample: scorer → ranker → one
    /// decoder batch per non-empty bin → non-uniform prediction. The
    /// returned [`Prediction`] is pool-backed — call
    /// [`Prediction::recycle`] when done to keep steady-state serving
    /// loops allocation-free.
    pub fn try_predict(&self, x: &Tensor<f32>) -> Result<Prediction, RankerError> {
        Ok(self.decode_plan(self.try_plan(x)?))
    }

    /// Batched `&self` inference over samples of identical extent:
    /// every sample is planned first, then every `(sample, bin)` pair
    /// with a non-empty group decodes as its own decoder batch. This is
    /// where non-uniform SR pays off at serving time (Figure 1's
    /// motivation): the expensive high-resolution bins hold few patches
    /// while LR patches stay cheap — uniform SR would run every sample
    /// entirely at max resolution. The first sample whose scores cannot
    /// be binned fails the whole batch (callers that want per-sample
    /// degradation pre-validate with [`FrozenAdarNet::try_plan`]).
    pub fn try_predict_batch(
        &self,
        samples: &[Tensor<f32>],
    ) -> Result<Vec<Prediction>, RankerError> {
        let plans: Vec<ForwardPlan> = samples
            .iter()
            .map(|x| self.try_plan(x))
            .collect::<Result<_, _>>()?;
        Ok(plans
            .into_iter()
            .map(|plan| self.decode_plan(plan))
            .collect())
    }
}

impl Prediction {
    /// Return every tensor buffer in this prediction to the workspace
    /// pool. Inference entry points ([`FrozenAdarNet::try_predict`],
    /// [`crate::engine::InferenceEngine::infer_batch`], ...) produce
    /// pool-backed predictions; recycling consumed ones is what makes
    /// steady-state serving loops allocation-free. Dropping a prediction
    /// instead is always safe — it merely returns the buffers to the
    /// allocator rather than the pool.
    pub fn recycle(self) {
        for p in self.patches {
            p.recycle();
        }
        self.scores.recycle();
    }

    /// The refinement map this prediction implies (the one-shot mesh).
    pub fn refinement_map(&self, max_level: u8) -> RefinementMap {
        RefinementMap::from_levels(self.layout, self.binning.bin_of_patch.clone(), max_level)
    }

    /// Total predicted cells (the non-uniform advantage: far fewer than
    /// uniform HR).
    pub fn active_cells(&self) -> usize {
        self.patches.iter().map(|p| p.dim(1) * p.dim(2)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(h: usize, w: usize) -> Tensor<f32> {
        Tensor::from_vec(
            Shape::d3(4, h, w),
            (0..4 * h * w).map(|i| ((i as f32) * 0.017).sin()).collect(),
        )
    }

    fn tiny_model() -> AdarNet {
        AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            ..AdarNetConfig::default()
        })
    }

    fn predict(x: &Tensor<f32>) -> Prediction {
        tiny_model().freeze().try_predict(x).unwrap()
    }

    #[test]
    fn predict_covers_every_patch_at_its_bin_resolution() {
        let pred = predict(&sample(16, 32));
        assert_eq!(pred.patches.len(), 2 * 4);
        for (idx, p) in pred.patches.iter().enumerate() {
            let level = pred.binning.level_of(idx);
            assert_eq!(p.dim(0), 4);
            assert_eq!(p.dim(1), 8 << level);
            assert_eq!(p.dim(2), 8 << level);
        }
    }

    #[test]
    fn decoder_input_has_coordinate_channels() {
        let mut m = tiny_model();
        let plan = m.plan(&sample(16, 32));
        let d0 = plan.decoder_input(0);
        assert_eq!(d0.dim(0), 7); // 4 flow + 1 latent + 2 coords
        let level = plan.binning.level_of(0);
        assert_eq!(d0.dim(1), 8 << level);
        // Coordinate channels are normalized to [0, 1] and monotone.
        let c = 5;
        let first = d0.get3(c, 0, 0);
        let last = d0.get3(c, 0, d0.dim(2) - 1);
        assert!(first >= 0.0 && last <= 1.0 && first < last);
        // Patch 0 occupies the left quarter of a 32-wide field.
        assert!(last < 0.3, "x coord of patch 0 should stay below 0.25ish");
    }

    #[test]
    fn coordinate_channels_are_the_per_pixel_formula_bitwise() {
        // The channels are filled a row at a time; every pixel must
        // still carry exactly what the per-pixel expression gives,
        // since the patch cache keys on these bytes.
        let mut m = tiny_model();
        let plan = m.plan(&sample(16, 32));
        let layout = plan.layout;
        let (fh, fw) = (layout.coarse_h() as f32, layout.coarse_w() as f32);
        for idx in 0..layout.num_patches() {
            let d = plan.decoder_input(idx);
            let (py, px) = layout.coords(idx);
            let scale = (1usize << plan.binning.level_of(idx)) as f32;
            for i in 0..d.dim(1) {
                let y = (py as f32 * layout.ph as f32 + (i as f32 + 0.5) / scale) / fh;
                for j in 0..d.dim(2) {
                    let x = (px as f32 * layout.pw as f32 + (j as f32 + 0.5) / scale) / fw;
                    assert_eq!(d.get3(5, i, j).to_bits(), x.to_bits());
                    assert_eq!(d.get3(6, i, j).to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn active_cells_below_uniform_hr_unless_all_max() {
        let pred = predict(&sample(16, 32));
        let uniform_hr = 16 * 32 * 64; // 8x per side everywhere
        let max_bin = AdarNetConfig::default().bins - 1;
        if pred.binning.bin_of_patch.iter().any(|&b| b < max_bin) {
            assert!(pred.active_cells() < uniform_hr);
        }
        assert!(pred.active_cells() >= 16 * 32);
    }

    #[test]
    fn refinement_map_matches_binning() {
        let pred = predict(&sample(16, 32));
        let map = pred.refinement_map(3);
        for idx in 0..8 {
            assert_eq!(map.level_at(idx), pred.binning.level_of(idx));
        }
    }

    #[test]
    fn predict_batch_matches_per_sample_predict() {
        let frozen = tiny_model().freeze();
        let a = sample(16, 32);
        let b = {
            let mut t = sample(16, 32);
            t.map_inplace(|v| v * 0.7 + 0.1);
            t
        };
        let batch = frozen.try_predict_batch(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(batch.len(), 2);
        for (got, x) in batch.iter().zip([&a, &b]) {
            let want = frozen.try_predict(x).unwrap();
            assert_eq!(got.binning.bin_of_patch, want.binning.bin_of_patch);
            assert_eq!(got.scores, want.scores);
            assert_eq!(got.patches, want.patches);
        }
        assert!(frozen.try_predict_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn frozen_model_is_shareable_across_threads() {
        use std::sync::Arc;
        let frozen = Arc::new(tiny_model().freeze());
        let x = sample(16, 32);
        let want = frozen.try_predict(&x).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let f = Arc::clone(&frozen);
                let xs = x.clone();
                std::thread::spawn(move || f.try_predict(&xs).unwrap())
            })
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            assert_eq!(got.binning.bin_of_patch, want.binning.bin_of_patch);
            assert_eq!(got.patches, want.patches);
        }
    }

    #[test]
    #[should_panic(expected = "channel count mismatch")]
    fn plan_rejects_wrong_channels() {
        let mut m = tiny_model();
        let bad = Tensor::<f32>::zeros(Shape::d3(3, 16, 32));
        let _ = m.plan(&bad);
    }
}

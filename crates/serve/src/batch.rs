//! Cache-aware micro-batch inference and the degraded bin-0 fallback.
//!
//! [`infer_cached`] is the server's one inference path: the same
//! plan → decode as `InferenceEngine::infer`, but same-bin patches from
//! every request in the micro-batch form one decoder batch, every bin's
//! batch is decoded in one `decode_bins` call (one split over the idle
//! cores), and each patch first consults the [`PatchCache`] — only
//! misses are decoded, and fresh decodes are inserted for the next
//! request. Because cache values are the exact tensors the decoder
//! produced (keyed on the exact decoder input), and each patch's decode
//! does not depend on its batch mates, predictions are bitwise what
//! per-field `InferenceEngine::infer` gives, with the cache on or off.
//!
//! [`degraded_prediction`] is the load-shedding path: a bin-0-everywhere
//! "prediction" whose patches are the raw (normalized) LR patches — no
//! scorer, no decoder, no model at all. It is what a saturated server
//! answers instead of queueing, mirroring how an AMR code under memory
//! pressure falls back to the unrefined mesh.

use std::time::Instant;

use adarnet_amr::PatchLayout;
use adarnet_core::engine::{EngineError, InferenceEngine};
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNetConfig, ForwardPlan, Prediction};
use adarnet_core::ranker::Binning;
use adarnet_obs::trace::TraceCtx;
use adarnet_tensor::{Shape, Tensor};

use crate::cache::{PatchCache, PatchKey};

/// Batched inference over raw LR fields with decoded-patch caching.
///
/// `generation` namespaces cache keys so entries from a hot-swapped-out
/// model can never serve a hit for the new one. The whole pass is
/// `&engine` — the frozen weight plane is shared, so any number of
/// workers run this concurrently against one engine.
///
/// The misses of every bin are gathered first, one stacked batch per
/// bin, and decoded together in one
/// [`adarnet_core::network::FrozenAdarNet::decode_bins`] call.
///
/// `traces` runs parallel to `fields` (`&[]` = nothing traced): that
/// one shared decode is recorded as a `stage_decoder` span (field
/// `bins`, the batch count) under every traced request contributing a
/// patch to it — the decode attribution the admin endpoint's span
/// trees show.
pub fn infer_cached(
    engine: &InferenceEngine,
    generation: u64,
    fields: &[Tensor<f32>],
    traces: &[Option<TraceCtx>],
    cache: &PatchCache,
) -> Result<Vec<Prediction>, EngineError> {
    if fields.is_empty() {
        return Ok(Vec::new());
    }
    let norm = *engine.norm();
    let bins = engine.config().bins;
    let frozen = engine.frozen();
    let normalized: Vec<Tensor<f32>> = fields.iter().map(|x| norm.normalize(x)).collect();
    let plans: Result<Vec<ForwardPlan>, _> =
        normalized.iter().map(|x| frozen.try_plan(x)).collect();
    for x in normalized {
        x.recycle();
    }
    let plans = plans?;
    let mut outputs: Vec<Vec<Option<Tensor<f32>>>> = plans
        .iter()
        .map(|p| (0..p.layout.num_patches()).map(|_| None).collect())
        .collect();

    // Gather every bin's (sample, patch) pairs across the whole
    // micro-batch, resolving cache hits up front, one stacked batch per
    // bin with misses; then decode all the batches in one call.
    // A disabled cache gets no key (a full copy and hash of the
    // decoder input), only its miss counted.
    let mut owners: Vec<Vec<(usize, usize, Option<PatchKey>)>> = Vec::new();
    let mut batches: Vec<Tensor<f32>> = Vec::new();
    for bin in 0..bins {
        let mut bin_owners = Vec::new();
        let mut inputs: Vec<Tensor<f32>> = Vec::new();
        for (si, plan) in plans.iter().enumerate() {
            for &pi in &plan.binning.groups[bin as usize] {
                let dec_in = plan.decoder_input(pi);
                let key = cache
                    .enabled()
                    .then(|| PatchKey::new(generation, bin, &dec_in));
                if key.is_none() {
                    cache.record_miss();
                }
                if let Some(hit) = key.as_ref().and_then(|k| cache.get(k)) {
                    outputs[si][pi] = Some(hit);
                } else {
                    bin_owners.push((si, pi, key));
                    inputs.push(dec_in);
                }
            }
        }
        if inputs.is_empty() {
            continue;
        }
        batches.push(Tensor::pooled_stack(&inputs));
        inputs.into_iter().for_each(Tensor::recycle);
        owners.push(bin_owners);
    }
    if !batches.is_empty() {
        let decode_start = Instant::now();
        let outs = frozen.decode_bins(&batches.iter().collect::<Vec<_>>());
        let decode_ns = decode_start.elapsed().as_nanos() as u64;
        // Attribute the shared decode once to each traced request whose
        // patches rode it.
        for (si, ctx) in traces.iter().enumerate() {
            let Some(ctx) = ctx else { continue };
            if owners.iter().flatten().any(|&(owner, _, _)| owner == si) {
                ctx.record("stage_decoder", decode_ns, "bins", batches.len() as u64);
            }
        }
        batches.into_iter().for_each(Tensor::recycle);
        for (bin_owners, out) in owners.into_iter().zip(outs) {
            for (k, (si, pi, key)) in bin_owners.into_iter().enumerate() {
                let image = out.pooled_image(k);
                // The cache owns an independent copy; the pooled image
                // travels with the prediction and is recycled by callers.
                if let Some(key) = key {
                    cache.insert(key, image.clone());
                }
                outputs[si][pi] = Some(image);
            }
            out.recycle();
        }
    }

    Ok(plans
        .into_iter()
        .zip(outputs)
        .map(|(plan, patches)| {
            let ForwardPlan {
                layout,
                scores,
                aug,
                binning,
            } = plan;
            aug.recycle();
            #[expect(
                clippy::expect_used,
                reason = "post-condition of the per-bin assembly loop directly above: every patch index is written exactly once before the take(); structurally unreachable"
            )]
            let patches = patches
                .into_iter()
                .map(|p| p.expect("per-bin loops fill every patch"))
                .collect();
            Prediction {
                layout,
                binning,
                patches,
                scores,
            }
        })
        .collect())
}

/// Build the bin-0 fallback for one raw `(C, H, W)` LR field: every
/// patch at level 0, patch contents = the normalized LR patches
/// themselves (what "no super-resolution" means in this pipeline).
pub fn degraded_prediction(
    norm: &NormStats,
    cfg: AdarNetConfig,
    field: &Tensor<f32>,
) -> Prediction {
    assert_eq!(field.shape().rank(), 3, "expected a (C, H, W) field");
    assert_eq!(field.dim(0), cfg.in_channels, "channel count mismatch");
    let (h, w) = (field.dim(1), field.dim(2));
    let layout = PatchLayout::for_field(h, w, cfg.ph, cfg.pw);
    let n = layout.num_patches();
    let normalized = norm.normalize(field);

    let patches: Vec<Tensor<f32>> = (0..n)
        .map(|idx| {
            let (py, px) = layout.coords(idx);
            normalized.pooled_extract_patch(py * layout.ph, px * layout.pw, layout.ph, layout.pw)
        })
        .collect();
    normalized.recycle();

    let mut groups = vec![Vec::new(); cfg.bins as usize];
    groups[0] = (0..n).collect();
    Prediction {
        layout,
        binning: Binning {
            bin_of_patch: vec![0; n],
            groups,
        },
        patches,
        scores: Tensor::<f32>::pooled_zeroed(Shape::d4(1, 1, layout.npy, layout.npx)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_core::network::AdarNet;

    fn sample(h: usize, w: usize, phase: f32) -> Tensor<f32> {
        Tensor::from_vec(
            Shape::d3(4, h, w),
            (0..4 * h * w)
                .map(|i| ((i as f32) * 0.017 + phase).sin())
                .collect(),
        )
    }

    fn tiny_engine(seed: u64) -> InferenceEngine {
        let model = AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            seed,
            ..AdarNetConfig::default()
        });
        InferenceEngine::new(model, NormStats::identity())
    }

    #[test]
    fn cached_inference_matches_uncached_bitwise() {
        let engine = tiny_engine(3);
        let fields = vec![sample(16, 32, 0.0), sample(16, 32, 1.1)];
        let cache = PatchCache::new(512);
        let disabled = PatchCache::new(0);
        let warm = infer_cached(&engine, 1, &fields, &[], &cache).unwrap();
        // Second pass: now everything hits the cache.
        let hot = infer_cached(&engine, 1, &fields, &[], &cache).unwrap();
        let cold = infer_cached(&engine, 1, &fields, &[], &disabled).unwrap();
        assert!(cache.hits() > 0, "second pass must hit");
        for (a, b) in warm.iter().zip(&hot) {
            assert_eq!(a.binning.bin_of_patch, b.binning.bin_of_patch);
            for (x, y) in a.patches.iter().zip(&b.patches) {
                assert_eq!(x, y);
            }
        }
        for (a, b) in warm.iter().zip(&cold) {
            for (x, y) in a.patches.iter().zip(&b.patches) {
                assert_eq!(x, y);
            }
        }
        // The cross-request batch changes nothing: each field's
        // prediction is bitwise the engine's per-field inference.
        for (field, batched) in fields.iter().zip(&cold) {
            let single = engine.infer(field).unwrap();
            assert_eq!(single.binning.bin_of_patch, batched.binning.bin_of_patch);
            assert_eq!(single.scores, batched.scores);
            assert_eq!(single.patches, batched.patches);
        }
    }

    #[test]
    fn disabled_cache_counts_one_miss_per_patch() {
        let engine = tiny_engine(5);
        let fields = vec![sample(16, 32, 0.3)];
        let disabled = PatchCache::new(0);
        let preds = infer_cached(&engine, 1, &fields, &[], &disabled).unwrap();
        assert_eq!(disabled.misses(), preds[0].patches.len() as u64);
        assert_eq!(disabled.hits(), 0);
        assert!(disabled.is_empty());
    }

    #[test]
    fn generation_change_invalidates_hits() {
        let engine = tiny_engine(4);
        let fields = vec![sample(16, 16, 0.5)];
        let cache = PatchCache::new(512);
        infer_cached(&engine, 1, &fields, &[], &cache).unwrap();
        let hits_before = cache.hits();
        infer_cached(&engine, 2, &fields, &[], &cache).unwrap();
        assert_eq!(cache.hits(), hits_before, "new generation must not hit");
    }

    #[test]
    fn degraded_prediction_is_all_bin_zero_lr_patches() {
        let cfg = AdarNetConfig {
            ph: 8,
            pw: 8,
            ..AdarNetConfig::default()
        };
        let norm = NormStats::identity();
        let field = sample(16, 32, 0.0);
        let pred = degraded_prediction(&norm, cfg, &field);
        assert_eq!(pred.patches.len(), 2 * 4);
        assert!(pred.binning.bin_of_patch.iter().all(|&b| b == 0));
        assert_eq!(pred.active_cells(), 16 * 32);
        for p in &pred.patches {
            assert_eq!((p.dim(0), p.dim(1), p.dim(2)), (4, 8, 8));
        }
        // Patch 0 is the top-left LR patch verbatim.
        assert_eq!(pred.patches[0].get3(0, 0, 0), field.get3(0, 0, 0));
    }
}

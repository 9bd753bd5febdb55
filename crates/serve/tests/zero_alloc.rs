//! The zero-allocation contract on the path the server runs:
//! `infer_cached`, the cross-request micro-batch inference every worker
//! calls.
//!
//! After warmup, a steady-state loop of `infer_cached` +
//! `Prediction::recycle` must perform **zero data-plane heap
//! allocations** (`workspace::data_allocs()`): normalized inputs,
//! scorer activations, decoder inputs, the stacked per-bin batches,
//! decoder activations and the split patch outputs all come from and
//! return to the workspace pool. The engine runs on the detected
//! backend, as a server's does; `adarnet-core`'s `zero_alloc` test holds
//! the per-field `InferenceEngine::infer` to the same contract on both
//! backends.
//!
//! The cache is disabled (`PatchCache::new(0)`) on purpose. A hit hands
//! back an owned clone of the cached tensor (`PatchCache::get`), and
//! every insert stores a clone of the fresh decode, so an enabled cache
//! allocates by design: one buffer per patch per round. A disabled cache
//! takes the decode path for every patch, which is the allocation-free
//! core the assertion is about.

use adarnet_core::engine::InferenceEngine;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_serve::{infer_cached, PatchCache};
use adarnet_tensor::{workspace, Shape, Tensor};

fn sample(h: usize, w: usize, phase: f32) -> Tensor<f32> {
    Tensor::from_vec(
        Shape::d3(4, h, w),
        (0..4 * h * w)
            .map(|i| ((i as f32) * 0.017 + phase).sin())
            .collect(),
    )
}

/// One test function on purpose: the workspace pool and the allocation
/// counter are process-global, and this file is its own test process.
#[test]
fn steady_state_infer_cached_performs_zero_data_allocations() {
    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 42,
        ..AdarNetConfig::default()
    });
    let engine = InferenceEngine::new(model, NormStats::identity());
    // Two 16x32 fields in one micro-batch -> 2x4 patch grids each, each
    // field spanning at least two non-empty bins (asserted below), so
    // the decode is one split over several batches.
    let fields = vec![sample(16, 32, 0.0), sample(16, 32, 1.3)];
    let cache = PatchCache::new(0);
    let round = || {
        let preds = infer_cached(&engine, 1, &fields, &[], &cache).expect("inference");
        let cells: usize = preds.iter().map(|p| p.active_cells()).sum();
        for pred in &preds {
            let bins = pred.binning.groups.iter().filter(|g| !g.is_empty());
            assert!(bins.count() >= 2, "{:?}", pred.binning.groups);
        }
        for pred in preds {
            pred.recycle();
        }
        cells
    };

    for _ in 0..6 {
        round();
    }
    let before = workspace::data_allocs();
    let cells: usize = (0..8).map(|_| round()).sum();
    let after = workspace::data_allocs();
    assert!(cells >= 8 * 2 * 16 * 32, "inference produced no output?");
    assert_eq!(
        after - before,
        0,
        "steady-state infer_cached on {} allocated {} data buffers in 8 \
         rounds; the serving path must run entirely from the workspace pool",
        engine.backend_name(),
        after - before
    );
}

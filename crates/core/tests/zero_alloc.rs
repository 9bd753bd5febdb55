//! The zero-allocation hot-path contract (acceptance test for the
//! workspace-pool refactor).
//!
//! After a warmup phase that populates the pool with the steady-state
//! working set, repeated `InferenceEngine::infer` calls — the engine's
//! per-field inference, on both compute backends — must perform **zero
//! data-plane heap allocations**:
//! every `f32` buffer (normalized inputs, scorer/decoder activations,
//! im2col panels, GEMM output panels, refined patches, coordinate
//! channels, patch outputs) is drawn from and recycled back into the
//! `adarnet_tensor::workspace` pool.
//!
//! The hook being asserted is `workspace::data_allocs()`: a process-wide
//! counter bumped on every pool miss and on every instrumented
//! `Tensor<f32>` data-buffer construction (`zeros`, `full`, `clone`,
//! `stack`, `image`, ...). Control-plane allocations — `Shape` vectors,
//! per-bin index lists, the `Vec<Prediction>` spine — are deliberately
//! out of scope: they are O(patches) pointer-sized, not O(pixels), and a
//! global-allocator hook is off the table under `unsafe_code = "deny"`.
//!
//! The serving hot loop, `adarnet_serve::infer_cached`, has its own
//! process and assertion in `crates/serve/tests/zero_alloc.rs`.

use adarnet_core::engine::InferenceEngine;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_nn::Device;
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
/// counter are process-global, so a sibling `#[test]` running on another
/// thread would perturb the count. Integration tests get their own
/// process, which is exactly the isolation this assertion needs.
#[test]
fn steady_state_infer_performs_zero_data_allocations() {
    // Both compute backends must honor the contract: the SIMD plane
    // draws its im2col/output panels from the same (64-byte-aligned)
    // workspace shelves as the scalar plane. Engines run sequentially
    // within the one test so the global counter stays interpretable.
    for device in [Device::CpuScalar, Device::CpuSimd] {
        let mut model = AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            seed: 42,
            ..AdarNetConfig::default()
        });
        model.set_device(device);
        let engine = InferenceEngine::new(model, NormStats::identity());
        // Two 16x32 fields -> 2x4 patch grids; with 8x8 patches the four bins
        // span extents 8/16/32/64, every one through the blocked GEMM driver
        // the pool exists for. Each field spans at least two non-empty
        // bins (asserted below), so its decode is one split over several
        // batches.
        let fields = vec![sample(16, 32, 0.0), sample(16, 32, 1.3)];

        // Warmup: several rounds so the pool reaches its steady-state working
        // set, including the peak number of concurrently-held im2col/output
        // panels.
        for _ in 0..6 {
            for field in &fields {
                engine.infer(field).expect("warmup inference").recycle();
            }
        }

        let before = workspace::data_allocs();
        let mut cells = 0usize;
        for _ in 0..8 {
            for field in &fields {
                let pred = engine.infer(field).expect("steady-state inference");
                let bins = pred.binning.groups.iter().filter(|g| !g.is_empty());
                assert!(bins.count() >= 2, "{:?}", pred.binning.groups);
                cells += pred.active_cells();
                pred.recycle();
            }
        }
        let after = workspace::data_allocs();
        assert!(cells >= 8 * 2 * 16 * 32, "inference produced no output?");
        assert_eq!(
            after - before,
            0,
            "steady-state infer on {} allocated {} data buffers in 8 \
             iterations; the hot path must run entirely from the workspace pool",
            device.name(),
            after - before
        );
    }
}

//! End-to-end backend equivalence: one model, two frozen engines — the
//! scalar reference plane and the vectorized SIMD plane — must agree on
//! every **refinement decision**.
//!
//! The kernel-level contract (`adarnet-nn`'s `device_equivalence`
//! suite) bounds the planes' numeric drift to FMA reassociation error;
//! this test pins the consequence that actually matters to the paper's
//! pipeline: patch scores drift by at most a few ULP, which never
//! crosses the ranker's quantile boundaries on real fields, so the
//! predicted mesh — bin of every patch, extent of every decoded patch —
//! is identical whichever backend served it. Patch *values* are
//! compared under the same relative tolerance as the kernel suite.
//!
//! On machines without AVX2/FMA the SIMD engine degrades to the scalar
//! micro-kernels and every comparison becomes exact — the test still
//! runs and still means "selecting `CpuSimd` is always safe".

use adarnet_core::engine::InferenceEngine;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_nn::Device;
use adarnet_tensor::{Shape, Tensor};

/// Same cross-backend relative tolerance as the kernel-level suite.
const TOL: f32 = 1e-4;

fn sample(h: usize, w: usize, phase: f32) -> Tensor<f32> {
    Tensor::from_vec(
        Shape::d3(4, h, w),
        (0..4 * h * w)
            .map(|i| ((i as f32) * 0.017 + phase).sin())
            .collect(),
    )
}

fn engine_on(device: Device, seed: u64) -> InferenceEngine {
    let mut model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed,
        ..AdarNetConfig::default()
    });
    model.set_device(device);
    InferenceEngine::new(model, NormStats::identity())
}

#[test]
fn scalar_and_simd_engines_agree_on_refinement_decisions() {
    let scalar = engine_on(Device::CpuScalar, 42);
    let simd = engine_on(Device::CpuSimd, 42);
    assert_eq!(scalar.backend_name(), "cpu_scalar");
    assert_eq!(simd.backend_name(), "cpu_simd");
    assert_eq!(scalar.device(), Device::CpuScalar);
    assert_eq!(simd.device(), Device::CpuSimd);

    // Several fields so the comparison spans different binnings, not
    // one lucky layout.
    for (k, field) in (0..4).map(|k| (k, sample(16, 32, k as f32 * 0.9))) {
        let ps = scalar.infer(&field).expect("scalar inference");
        let pv = simd.infer(&field).expect("simd inference");

        // The mesh itself: identical bin for every patch.
        assert_eq!(
            ps.binning.bin_of_patch, pv.binning.bin_of_patch,
            "field {k}: backends disagree on refinement decisions"
        );

        // Scores and decoded patches: within the kernel suite's
        // FMA-reassociation bound.
        for (a, b) in ps.scores.as_slice().iter().zip(pv.scores.as_slice()) {
            assert!(
                (a - b).abs() <= TOL * (1.0 + a.abs()),
                "field {k}: score drift {a} vs {b}"
            );
        }
        assert_eq!(ps.patches.len(), pv.patches.len());
        for (pa, pb) in ps.patches.iter().zip(&pv.patches) {
            assert_eq!(pa.shape(), pb.shape(), "field {k}: patch extent differs");
            for (a, b) in pa.as_slice().iter().zip(pb.as_slice()) {
                assert!(
                    (a - b).abs() <= TOL * (1.0 + a.abs()),
                    "field {k}: patch value drift {a} vs {b}"
                );
            }
        }
        ps.recycle();
        pv.recycle();
    }
}

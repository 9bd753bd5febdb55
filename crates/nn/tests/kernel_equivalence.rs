//! Property-based equivalence suite for the convolution forward paths
//! against the naive reference, the direct loop nest
//! (`Device::CpuScalar.conv2d_forward`):
//!
//! * the packed GEMM driver over panels packed ahead of the call (the
//!   frozen layers' path),
//! * the same driver packing per call (`conv2d_forward_percall`, the
//!   mutable layers' path) — which must also equal the first bitwise.
//!
//! Both must agree within 1e-4 across randomized shapes, including the
//! degenerate corners the driver's edge handling exists for: a single
//! output channel (`oc = 1`, below the MR=4 register tile), a 1x1
//! kernel, a single-sample batch, and non-square fields (H != W).

use adarnet_nn::kernels::{pack_weight_panels, packed_panels_len, PackedPanels, MR};
use adarnet_nn::Device;
use adarnet_tensor::{Shape, Tensor};
use proptest::prelude::*;

/// Deterministic pseudo-random fill: proptest's vendored stand-in has no
/// dependent (flat-map) generation, so shapes are drawn as plain dims and
/// the tensor contents derive from a drawn seed.
fn filled(shape: Shape, seed: u64, scale: f32) -> Tensor<f32> {
    let n = shape.numel();
    Tensor::from_vec(
        shape,
        (0..n)
            .map(|i| ((i as f32) * 0.731 + (seed % 4096) as f32 * 0.137).sin() * scale)
            .collect(),
    )
}

/// `got` against the reference `want`, within 1e-4 relative.
fn close(what: &str, want: &Tensor<f32>, got: &Tensor<f32>) -> Result<(), String> {
    if want.shape() != got.shape() {
        return Err(format!("{what}: shape {:?}", got.shape()));
    }
    for (i, (&d, &g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        if (d - g).abs() > 1e-4 * (1.0 + d.abs()) {
            return Err(format!(
                "{what} diverges at {i}: direct={d} {what}={g} (shape {:?})",
                want.shape()
            ));
        }
    }
    Ok(())
}

/// The packed driver over `panels` against the direct loop nest.
fn packed_agrees(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    b: &Tensor<f32>,
    pad: usize,
    panels: &[f32],
) -> Result<Tensor<f32>, String> {
    let view = PackedPanels {
        data: panels,
        oc: w.dim(0),
        ic: w.dim(1),
        kh: w.dim(2),
        kw: w.dim(3),
    };
    let packed = Device::CpuScalar.conv2d_forward_packed(x, view, b, pad);
    close(
        "packed",
        &Device::CpuScalar.conv2d_forward(x, w, b, pad),
        &packed,
    )?;
    Ok(packed)
}

fn paths_agree(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    b: &Tensor<f32>,
    pad: usize,
) -> Result<(), String> {
    let (oc, k_len) = (w.dim(0), w.dim(1) * w.dim(2) * w.dim(3));
    let mut panels = vec![0.0f32; packed_panels_len(oc, k_len)];
    pack_weight_panels(w.as_slice(), oc, k_len, &mut panels);
    let packed = packed_agrees(x, w, b, pad, &panels)?;
    let percall = Device::CpuScalar.conv2d_forward_percall(x, w, b, pad);
    if percall != packed {
        return Err("per-call pack != pre-packed panels (bitwise)".into());
    }
    Ok(())
}

fn assert_paths_agree(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    b: &Tensor<f32>,
    pad: usize,
) -> Result<(), TestCaseError> {
    let verdict = paths_agree(x, w, b, pad);
    prop_assert!(verdict.is_ok(), "{:?}", verdict);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized batch/channel/kernel/extent sweep. `oc` deliberately
    /// starts at 1 (partial MR tile), kernels cover 1x1/3x3/5x5, and
    /// `h`/`w` are drawn independently so most cases are non-square.
    #[test]
    fn all_paths_agree_on_randomized_shapes(
        n in 1usize..=3,
        ic in 1usize..=4,
        oc in 1usize..=9,
        kidx in 0usize..=2,
        h in 1usize..=11,
        w in 1usize..=11,
        seed in 0u64..4096,
    ) {
        let k = 2 * kidx + 1;
        let pad = (k - 1) / 2;
        let x = filled(Shape::d4(n, ic, h, w), seed, 1.0);
        let wt = filled(Shape::d4(oc, ic, k, k), seed ^ 0x9e37, 0.5);
        let b = filled(Shape::d1(oc), seed ^ 0x7f4a, 0.1);
        assert_paths_agree(&x, &wt, &b, pad)?;
    }

    /// Valid (pad = 0) convolutions shrink the output; exercise the
    /// non-"same" geometry the layers never use but the kernels support.
    #[test]
    fn all_paths_agree_without_padding(
        ic in 1usize..=3,
        oc in 1usize..=5,
        h in 3usize..=9,
        w in 3usize..=9,
        seed in 0u64..4096,
    ) {
        let x = filled(Shape::d4(2, ic, h, w), seed, 1.0);
        let wt = filled(Shape::d4(oc, ic, 3, 3), seed ^ 0x1234, 0.5);
        let b = filled(Shape::d1(oc), seed ^ 0x4321, 0.1);
        assert_paths_agree(&x, &wt, &b, 0)?;
    }

    /// The degenerate corners pinned explicitly: single-sample batch,
    /// single output channel, 1x1 kernel, strongly non-square field.
    #[test]
    fn degenerate_corners_agree(seed in 0u64..4096) {
        // n=1, oc=1, k=1, H != W.
        let x = filled(Shape::d4(1, 3, 2, 13), seed, 1.0);
        let wt = filled(Shape::d4(1, 3, 1, 1), seed ^ 0xaa, 0.5);
        let b = filled(Shape::d1(1), seed ^ 0xbb, 0.1);
        assert_paths_agree(&x, &wt, &b, 0)?;

        // Single pixel per row: w=1 with a 3x3 same-padded kernel.
        let x = filled(Shape::d4(1, 2, 7, 1), seed ^ 0xcc, 1.0);
        let wt = filled(Shape::d4(1, 2, 3, 3), seed ^ 0xdd, 0.5);
        let b = filled(Shape::d1(1), seed ^ 0xee, 0.1);
        assert_paths_agree(&x, &wt, &b, 1)?;

        // Exactly one full MR x NR register tile (oc=4, 16 output pixels).
        let x = filled(Shape::d4(1, 3, 4, 4), seed ^ 0x11, 1.0);
        let wt = filled(Shape::d4(4, 3, 3, 3), seed ^ 0x22, 0.5);
        let b = filled(Shape::d1(4), seed ^ 0x33, 0.1);
        assert_paths_agree(&x, &wt, &b, 1)?;
    }
}

/// Seeded bug: the comparison above must be able to fail. Panels packed
/// with two output-channel rows swapped compute a different convolution,
/// and the same check that passes on the honest panels must reject them.
#[test]
fn swapped_panel_rows_fail_the_comparison() {
    let x = filled(Shape::d4(1, 3, 6, 7), 7, 1.0);
    let w = filled(Shape::d4(5, 3, 3, 3), 11, 0.5);
    let b = filled(Shape::d1(5), 13, 0.1);
    let k_len = 3 * 3 * 3;
    let mut panels = vec![0.0f32; packed_panels_len(5, k_len)];
    pack_weight_panels(w.as_slice(), 5, k_len, &mut panels);
    assert!(packed_agrees(&x, &w, &b, 1, &panels).is_ok());
    for k in 0..k_len {
        panels.swap(k * MR, k * MR + 1);
    }
    let verdict = packed_agrees(&x, &w, &b, 1, &panels);
    assert!(verdict.is_err(), "swapped rows 0 and 1 went unnoticed");
}

//! Backend-equivalence suite: the SIMD plane must compute the same
//! convolutions as the scalar reference plane.
//!
//! The contract is two-tiered (DESIGN.md §10.5):
//!
//! * **Bitwise within a backend** — panels packed per call == panels
//!   packed ahead of it on the *same* device, whichever it is. The
//!   accumulation order is part of each backend's contract.
//! * **ULP-bounded across backends** — the SIMD GEMMs fuse
//!   multiply-add (one rounding instead of two), so their outputs drift
//!   from scalar by at most the FMA reassociation error: a relative
//!   bound of a few units in the last place per reduction step,
//!   asserted here as `|a - b| <= TOL * (1 + |a|)` with `TOL` sized for
//!   the largest reduction in the suite.
//!
//! On machines without AVX2/FMA the `CpuSimd` arm degrades to the
//! scalar micro-kernels, every comparison becomes exact, and the suite
//! still passes — so it runs (and means something) everywhere, while on
//! AVX2 hardware it pins the vector plane against the reference.

use adarnet_nn::kernels::{pack_weight_panels, packed_panels_len, PackedPanels};
use adarnet_nn::{Device, F};
use adarnet_tensor::{Shape, Tensor};
use proptest::prelude::*;

/// Cross-backend relative tolerance. Each output element of the widest
/// test GEMM reduces k_len = 4*3*3 = 36 terms; one fused rounding per
/// term bounds the drift far below 1e-4 relative for inputs in [-2, 2].
const TOL: f32 = 1e-4;

fn arb_tensor(shape: Shape) -> impl Strategy<Value = Tensor<f32>> {
    let n = shape.numel();
    prop::collection::vec(-2.0f32..2.0, n).prop_map(move |v| Tensor::from_vec(shape.clone(), v))
}

fn assert_close(a: &Tensor<F>, b: &Tensor<F>, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape(), "{} shape", what);
    for (av, bv) in a.as_slice().iter().zip(b.as_slice()) {
        prop_assert!(
            (av - bv).abs() <= TOL * (1.0 + av.abs()),
            "{}: scalar {} vs simd {}",
            what,
            av,
            bv
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-call-packed forward (the mutable layers' entry point): SIMD
    /// within FMA-reassociation distance of scalar. Shape exercises
    /// full MR x NR tiles, ragged row blocks (oc = 6), and ragged
    /// column tiles (o_len = 9*7 = 63).
    #[test]
    fn percall_forward_scalar_vs_simd(
        x in arb_tensor(Shape::d4(2, 4, 9, 7)),
        w in arb_tensor(Shape::d4(6, 4, 3, 3)),
        b in arb_tensor(Shape::d1(6)),
    ) {
        let s = Device::CpuScalar.conv2d_forward_percall(&x, &w, &b, 1);
        let v = Device::CpuSimd.conv2d_forward_percall(&x, &w, &b, 1);
        assert_close(&s, &v, "per-call forward")?;
    }

    /// Pre-packed forward across backends — and pre-packed == per-call
    /// bitwise *within* each backend, the per-device accumulation
    /// contract that makes frozen inference equal the training forward.
    #[test]
    fn packed_forward_scalar_vs_simd(
        x in arb_tensor(Shape::d4(1, 3, 16, 16)),
        w in arb_tensor(Shape::d4(8, 3, 3, 3)),
        b in arb_tensor(Shape::d1(8)),
    ) {
        let k_len = 3 * 3 * 3;
        let mut panels = vec![0.0f32; packed_panels_len(8, k_len)];
        pack_weight_panels(w.as_slice(), 8, k_len, &mut panels);
        let view = PackedPanels { data: &panels, oc: 8, ic: 3, kh: 3, kw: 3 };
        let s = Device::CpuScalar.conv2d_forward_packed(&x, view, &b, 1);
        let v = Device::CpuSimd.conv2d_forward_packed(&x, view, &b, 1);
        assert_close(&s, &v, "packed forward")?;
        for (dev, packed) in [(Device::CpuScalar, &s), (Device::CpuSimd, &v)] {
            let percall = dev.conv2d_forward_percall(&x, &w, &b, 1);
            prop_assert_eq!(
                percall.as_slice(), packed.as_slice(),
                "per-call != pre-packed on {}", dev.name()
            );
        }
    }

    /// Weight-gradient GEMM across backends. The dot-product kernel
    /// reduces o_len = 48 terms per element; same FMA bound applies.
    #[test]
    fn backward_params_scalar_vs_simd(
        x in arb_tensor(Shape::d4(2, 3, 6, 8)),
        dy in arb_tensor(Shape::d4(2, 4, 6, 8)),
    ) {
        let wshape = Shape::d4(4, 3, 3, 3);
        let mut dw_s = Tensor::<F>::zeros(wshape.clone());
        let mut db_s = Tensor::<F>::zeros(Shape::d1(4));
        Device::CpuScalar.conv2d_backward_params(&dy, &x, 1, &mut dw_s, &mut db_s);
        let mut dw_v = Tensor::<F>::zeros(wshape);
        let mut db_v = Tensor::<F>::zeros(Shape::d1(4));
        Device::CpuSimd.conv2d_backward_params(&dy, &x, 1, &mut dw_v, &mut db_v);
        assert_close(&dw_s, &dw_v, "dw")?;
        // Bias accumulation is a plain sum outside the micro-kernels:
        // bitwise identical across backends.
        prop_assert_eq!(db_s.as_slice(), db_v.as_slice());
    }
}

/// On AVX2+FMA hardware the vector plane must actually be *different*
/// machine code, not silently the scalar fallback: fused multiply-adds
/// round differently somewhere across a 128-output GEMM. (Skipped where
/// SIMD is unavailable — there the fallback makes the planes equal by
/// design.)
#[test]
fn simd_plane_actually_engages_on_capable_hardware() {
    if !Device::CpuSimd.is_simd_active() {
        return;
    }
    // Big enough that at least one of 8192 accumulations rounds
    // differently under fusion; irrational-step inputs avoid exactly
    // representable products.
    let x = Tensor::<F>::from_vec(
        Shape::d4(1, 8, 16, 16),
        (0..2048).map(|i| (i as F * 0.1307).sin()).collect(),
    );
    let w = Tensor::<F>::from_vec(
        Shape::d4(8, 8, 3, 3),
        (0..576).map(|i| (i as F * 0.0811).cos()).collect(),
    );
    let b = Tensor::<F>::zeros(Shape::d1(8));
    let s = Device::CpuScalar.conv2d_forward_percall(&x, &w, &b, 1);
    let v = Device::CpuSimd.conv2d_forward_percall(&x, &w, &b, 1);
    assert_ne!(
        s.as_slice(),
        v.as_slice(),
        "SIMD GEMM is bitwise identical to scalar — the FMA plane is not engaging"
    );
}

//! Property-based tests for the NN substrate: linearity of the linear
//! operators, adjoint identities, and shape invariants.

use adarnet_nn::kernels::{
    flip_transpose_weights, pack_weight_panels, packed_panels_len, PackedPanels,
};
use adarnet_nn::{
    bicubic_resize3, bicubic_resize3_adjoint, Device, Layer, MaxPool2d, SpatialSoftmax,
};
use adarnet_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn arb_tensor(shape: Shape) -> impl Strategy<Value = Tensor<f32>> {
    let n = shape.numel();
    prop::collection::vec(-2.0f32..2.0, n).prop_map(move |v| Tensor::from_vec(shape.clone(), v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Convolution is linear in its input: conv(a x + b y) = a conv(x) + b conv(y).
    #[test]
    fn conv_linear_in_input(
        x in arb_tensor(Shape::d4(1, 2, 5, 5)),
        y in arb_tensor(Shape::d4(1, 2, 5, 5)),
        a in -2.0f32..2.0,
    ) {
        let w = Tensor::from_vec(
            Shape::d4(3, 2, 3, 3),
            (0..54).map(|i| ((i as f32) * 0.17).sin()).collect(),
        );
        let bias = Tensor::zeros(Shape::d1(0));
        let lhs = Device::CpuScalar.conv2d_forward(&x.scale(a).add(&y), &w, &bias, 1);
        let rhs = Device::CpuScalar.conv2d_forward(&x, &w, &bias, 1).scale(a).add(&Device::CpuScalar.conv2d_forward(&y, &w, &bias, 1));
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((l - r).abs() < 1e-3 * (1.0 + r.abs()), "{l} vs {r}");
        }
    }

    /// The packed GEMM (packing per call, as the mutable layers do)
    /// agrees with the direct path on arbitrary inputs.
    #[test]
    fn gemm_agrees_with_direct(x in arb_tensor(Shape::d4(2, 3, 6, 4))) {
        let w = Tensor::from_vec(
            Shape::d4(2, 3, 3, 3),
            (0..54).map(|i| ((i as f32) * 0.23).cos()).collect(),
        );
        let b = Tensor::from_vec(Shape::d1(2), vec![0.1, -0.2]);
        let d = Device::CpuScalar.conv2d_forward(&x, &w, &b, 1);
        let g = Device::CpuScalar.conv2d_forward_percall(&x, &w, &b, 1);
        for (a, bv) in d.as_slice().iter().zip(g.as_slice()) {
            prop_assert!((a - bv).abs() < 1e-4 * (1.0 + a.abs()));
        }
    }

    /// Panels packed ahead of the call are **bitwise** identical to
    /// packing per call on arbitrary inputs, weights, and shapes — the
    /// frozen model's panels must replay the training forward's exact
    /// accumulation order, not merely approximate it.
    #[test]
    fn prepacked_bitwise_identical_to_percall(
        x in arb_tensor(Shape::d4(2, 3, 9, 7)),
        w in arb_tensor(Shape::d4(5, 3, 3, 3)),
        b in arb_tensor(Shape::d1(5)),
    ) {
        let percall = Device::CpuScalar.conv2d_forward_percall(&x, &w, &b, 1);
        let k_len = 3 * 3 * 3;
        let mut panels = vec![0.0f32; packed_panels_len(5, k_len)];
        pack_weight_panels(w.as_slice(), 5, k_len, &mut panels);
        let packed = Device::CpuScalar.conv2d_forward_packed(
            &x,
            PackedPanels { data: &panels, oc: 5, ic: 3, kh: 3, kw: 3 },
            &b,
            1,
        );
        prop_assert_eq!(percall.as_slice(), packed.as_slice());
    }

    /// Bicubic adjoint identity <A x, y> == <x, A^T y> on arbitrary fields.
    #[test]
    fn bicubic_adjoint_identity(
        x in arb_tensor(Shape::d3(1, 4, 5)),
        y in arb_tensor(Shape::d3(1, 8, 10)),
    ) {
        let ax = bicubic_resize3(&x, 8, 10);
        let aty = bicubic_resize3_adjoint(&y, 4, 5);
        let lhs = ax.dot(&y);
        let rhs = x.dot(&aty);
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// flip-transpose is a self-inverse weight transform.
    #[test]
    fn flip_transpose_involution(w in arb_tensor(Shape::d4(3, 2, 3, 3))) {
        prop_assert_eq!(flip_transpose_weights(&flip_transpose_weights(&w)), w);
    }

    /// Softmax output is always a probability distribution per batch item.
    #[test]
    fn softmax_distribution(x in arb_tensor(Shape::d2(3, 7))) {
        let mut l = SpatialSoftmax::new();
        let y = l.forward(&x);
        for b in 0..3 {
            let s: f64 = y.as_slice()[b * 7..(b + 1) * 7].iter().map(|&v| v as f64).sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
            for &v in &y.as_slice()[b * 7..(b + 1) * 7] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    /// Max pooling dominates every input in its window and backward
    /// conserves the gradient mass.
    #[test]
    fn maxpool_dominance_and_mass(x in arb_tensor(Shape::d4(1, 1, 4, 6))) {
        let mut l = MaxPool2d::new(2, 2);
        let y = l.forward(&x);
        for (k, &v) in y.as_slice().iter().enumerate() {
            let (oy, ox) = (k / 3, k % 3);
            for py in 0..2 {
                for px in 0..2 {
                    prop_assert!(v >= x.get4(0, 0, oy * 2 + py, ox * 2 + px));
                }
            }
        }
        let g = Tensor::full(y.shape().clone(), 1.0f32);
        let dx = l.backward(&g);
        prop_assert!((dx.sum() - g.sum()).abs() < 1e-4);
    }
}

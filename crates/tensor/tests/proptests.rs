//! Property-based tests for the tensor substrate.

use adarnet_tensor::{Grid2, Shape, Tensor};
use proptest::prelude::*;

fn small_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, 1..max_len)
}

proptest! {
    #[test]
    fn add_commutes(v in small_vec(64)) {
        let n = v.len();
        let a = Tensor::from_vec(Shape::d1(n), v.clone());
        let b = Tensor::from_vec(Shape::d1(n), v.iter().rev().copied().collect());
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn scale_is_linear(v in small_vec(64), s in -10.0f64..10.0) {
        let n = v.len();
        let a = Tensor::from_vec(Shape::d1(n), v);
        let lhs = a.scale(s).add(&a.scale(s));
        let rhs = a.scale(2.0 * s);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn mse_is_zero_iff_equal(v in small_vec(64)) {
        let n = v.len();
        let a = Tensor::from_vec(Shape::d1(n), v);
        prop_assert_eq!(a.mse(&a), 0.0);
    }

    #[test]
    fn l2_norm_triangle_inequality(v in small_vec(64)) {
        let n = v.len();
        let a = Tensor::from_vec(Shape::d1(n), v.clone());
        let b = Tensor::from_vec(Shape::d1(n), v.iter().map(|x| x * 0.5 - 1.0).collect());
        prop_assert!(a.add(&b).l2_norm() <= a.l2_norm() + b.l2_norm() + 1e-9);
    }

    #[test]
    fn patch_split_assemble_roundtrip(
        c in 1usize..4,
        npy in 1usize..4,
        npx in 1usize..4,
        ph in 1usize..6,
        pw in 1usize..6,
        seed in 0u64..1000,
    ) {
        let (h, w) = (npy * ph, npx * pw);
        let mut val = seed as f32;
        let mut t = Tensor::<f32>::zeros(Shape::d3(c, h, w));
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    val = (val * 1.3 + 0.7) % 97.0;
                    t.set3(ci, y, x, val);
                }
            }
        }
        let patches = t.split_patches(ph, pw);
        prop_assert_eq!(patches.len(), npy * npx);
        let back = Tensor::assemble_patches(&patches, npy, npx);
        prop_assert_eq!(back, t);
    }

    #[test]
    fn grid_restrict_preserves_mean(ny in 1usize..8, nx in 1usize..8, seed in 0u64..100) {
        let (ny, nx) = (ny * 2, nx * 2);
        let g = Grid2::from_fn(ny, nx, |i, j| ((i * 31 + j * 17 + seed as usize) % 13) as f64);
        let r = g.restrict_half();
        let mf = g.as_slice().iter().sum::<f64>() / g.len() as f64;
        let mc = r.as_slice().iter().sum::<f64>() / r.len() as f64;
        prop_assert!((mf - mc).abs() < 1e-10);
    }

    #[test]
    fn grid_bilinear_within_bounds(ny in 2usize..10, nx in 2usize..10, fi in -2.0f64..12.0, fj in -2.0f64..12.0) {
        let g = Grid2::from_fn(ny, nx, |i, j| (i + j) as f64);
        let v = g.sample_bilinear(fi, fj);
        prop_assert!(v >= g.min_value() - 1e-12 && v <= g.max_value() + 1e-12);
    }
}

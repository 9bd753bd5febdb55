//! Golden output hashes for the ten model conv shapes, per backend.
//!
//! The table was generated at the parent of the PR that introduced the
//! AVX-512 4x64 tile and the vectorized ragged-row body (commit
//! `ffcad55`, 4x16 AVX2 tile + scalar edge loop), so it pins the claim
//! that every conv output on every model shape is bit-identical to
//! that commit on both backends. To regenerate after a *deliberate*
//! change of the arithmetic contract (docs/NUMERICS.md §2), run the
//! test and copy the table it prints on mismatch.
//!
//! Each shape runs at two extents: the one the model feeds it (decoder
//! layers on a batch of two 32x32 patches, scorer layers on the 64x256
//! LR field — whole 64-wide tiles) and a batch of two 13x9 fields, whose
//! 117 output pixels split into one 64-wide tile, three 16-wide tiles
//! and five ragged columns.
//!
//! The `cpu_simd` column holds FMA-fused sums; on a host without
//! AVX2+FMA that device degrades to the scalar micro-kernels and is
//! checked against the scalar column instead.

use adarnet_nn::{Device, F};
use adarnet_tensor::{Shape, Tensor};

/// `(name, in channels, out channels, scorer layer)`.
const MODEL_SHAPES: [(&str, usize, usize, bool); 10] = [
    ("dec_l1", 7, 8, false),
    ("dec_l2", 8, 16, false),
    ("dec_l3", 16, 64, false),
    ("dec_l4", 64, 64, false),
    ("dec_l5", 64, 16, false),
    ("dec_l6", 16, 4, false),
    ("scorer_c1", 4, 8, true),
    ("scorer_c2", 8, 16, true),
    ("scorer_c3", 16, 16, true),
    ("scorer_c4", 16, 1, true),
];

/// `[model extent, ragged extent]` hashes per shape, `GOLDEN[backend]`
/// with backend 0 = `cpu_scalar`, 1 = `cpu_simd` (AVX2+FMA or wider).
const GOLDEN: [[[u64; 2]; 10]; 2] = [
    // cpu_scalar
    [
        [0xeb3299fcc7d35888, 0x3ff32cb043b20f3f], // dec_l1
        [0xc1eb0afc86a86822, 0x4d095b09ca445ce0], // dec_l2
        [0xfbca32c0d26b4c55, 0xc5959941c02b9303], // dec_l3
        [0x2178c47ed1021383, 0xf16327f2c8dbbcf6], // dec_l4
        [0xc4f61b083a8f3c50, 0xda57c413ab028711], // dec_l5
        [0x731b9ea83db43930, 0x34b3c563547fa97c], // dec_l6
        [0xa9f342091aad8986, 0xffc05a2679c1e7e3], // scorer_c1
        [0x8b6c2489173c7798, 0x4d095b09ca445ce0], // scorer_c2
        [0x7b4181ea3a9e2c57, 0xacd6d9cce25e6827], // scorer_c3
        [0x3e3014a84bc06972, 0x597acae52e053927], // scorer_c4
    ],
    // cpu_simd
    [
        [0x372aad70c56673d6, 0xc288dbb756d59d14], // dec_l1
        [0x9563c3b901d14fee, 0xf3b3afee1d1b5238], // dec_l2
        [0xcb06406a5e8c9c66, 0xf599f87df5205def], // dec_l3
        [0x0b46c3400fda9ac7, 0xc21e430a4ccc1a8d], // dec_l4
        [0x654c65d167c49e54, 0x4014beb8bf911bfd], // dec_l5
        [0xf204dfc5465a2743, 0x84d9024d44247057], // dec_l6
        [0xeca19f0f4ca66335, 0x0f5c0bbac4fc0acd], // scorer_c1
        [0x2553235b8ac76c57, 0xf3b3afee1d1b5238], // scorer_c2
        [0xf5133dfa630ddb28, 0x81a328ed0a2b2bf4], // scorer_c3
        [0x3e3014a84bc06972, 0x597acae52e053927], // scorer_c4
    ],
];

fn seeded(shape: Shape, step: F, phase: F) -> Tensor<F> {
    let n = shape.numel();
    Tensor::from_vec(
        shape,
        (0..n).map(|i| (i as F * step + phase).sin()).collect(),
    )
}

/// FNV-1a over the output's f32 bit patterns.
fn hash_bits(t: &Tensor<F>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in t.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn hashes(dev: Device) -> [[u64; 2]; 10] {
    let mut out = [[0u64; 2]; 10];
    for (row, &(_, ic, oc, scorer)) in out.iter_mut().zip(&MODEL_SHAPES) {
        let w = seeded(Shape::d4(oc, ic, 3, 3), 0.0811, 0.3);
        let b = seeded(Shape::d1(oc), 0.77, 1.1);
        let model = if scorer {
            Shape::d4(1, ic, 64, 256)
        } else {
            Shape::d4(2, ic, 32, 32)
        };
        for (slot, shape) in row.iter_mut().zip([model, Shape::d4(2, ic, 13, 9)]) {
            let x = seeded(shape, 0.1307, 0.0);
            *slot = hash_bits(&dev.conv2d_forward_percall(&x, &w, &b, 1));
        }
    }
    out
}

#[test]
fn model_conv_outputs_match_the_parent_commit_bitwise() {
    let got = [hashes(Device::CpuScalar), hashes(Device::CpuSimd)];
    let want = if Device::CpuSimd.is_simd_active() {
        GOLDEN
    } else {
        [GOLDEN[0], GOLDEN[0]]
    };
    if got != want {
        for (dev, table) in ["cpu_scalar", "cpu_simd"].iter().zip(&got) {
            eprintln!("    // {dev}");
            eprintln!("    [");
            for ((name, ..), pair) in MODEL_SHAPES.iter().zip(table) {
                eprintln!("        [{:#018x}, {:#018x}], // {name}", pair[0], pair[1]);
            }
            eprintln!("    ],");
        }
    }
    for (d, dev) in ["cpu_scalar", "cpu_simd"].iter().enumerate() {
        for (s, (name, ..)) in MODEL_SHAPES.iter().enumerate() {
            assert_eq!(
                got[d][s], want[d][s],
                "{name} on {dev}: [model extent, 13x9] hashes moved"
            );
        }
    }
}

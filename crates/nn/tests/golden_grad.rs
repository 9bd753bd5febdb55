//! Golden hashes of the conv layers' gradients, per backend.
//!
//! The table was generated at the parent of the change that rewrote the
//! weight-gradient reduction as a multi-row kernel
//! (`driver::conv2d_backward_params`), so it pins the claim that `dW`,
//! `db` and `dX` of both conv layer types are bit-identical to that
//! commit on both backends, and with them every training step. To
//! regenerate after a *deliberate* change of the arithmetic contract
//! (docs/NUMERICS.md §2), run the test and copy the table it prints on
//! mismatch.
//!
//! Each case runs two forward/backward rounds on one layer without
//! zeroing in between, so the gradients accumulate, and hashes `dW`,
//! `db` and both rounds' `dX`. The extents put a field's pixel count
//! below one 32-lane chunk (5x4 = 20), on whole chunks (8x8 = 64) and
//! across chunks with a 16-pixel remainder (12x12 = 144); the batches
//! are one and three items.
//!
//! The `cpu_simd` column holds FMA-fused sums; on a host without
//! AVX2+FMA that device degrades to the scalar micro-kernels and is
//! checked against the scalar column instead.

use adarnet_nn::{Conv2d, ConvTranspose2d, Device, Initializer, Layer, F};
use adarnet_tensor::{Shape, Tensor};

/// `(name, in channels, out channels, transposed)`: `oc` off and on a
/// multiple of four, `k_len = ic * 9` from 27 to 576.
const LAYERS: [(&str, usize, usize, bool); 4] = [
    ("conv_3_5", 3, 5, false),
    ("conv_16_64", 16, 64, false),
    ("deconv_64_16", 64, 16, true),
    ("deconv_5_3", 5, 3, true),
];

/// `(batch, height, width)`.
const EXTENTS: [(usize, usize, usize); 6] = [
    (1, 5, 4),
    (3, 5, 4),
    (1, 8, 8),
    (3, 8, 8),
    (1, 12, 12),
    (3, 12, 12),
];

/// Hashes per `[layer][extent]`, `GOLDEN[backend]` with backend 0 =
/// `cpu_scalar`, 1 = `cpu_simd` (AVX2+FMA or wider).
const GOLDEN: [[[u64; 6]; 4]; 2] = [
    // cpu_scalar
    [
        [
            0x41e127e00f278da4,
            0xfee5702901be9626,
            0x207742287183e367,
            0x972a371a816718cf,
            0x16089519334a67e4,
            0xca0212799dac37a4,
        ], // conv_3_5
        [
            0x747cd1d86737eb0f,
            0x31387e7af43fb5b2,
            0x08a715419135f4ab,
            0x62378259ba0567f9,
            0x71140404cba2e598,
            0xde3c23c00a7ef14e,
        ], // conv_16_64
        [
            0xed214b89edacc556,
            0x46715975291175b0,
            0xb81014d2607742f6,
            0xc1db51b6685debfb,
            0x9302c1476fb08c57,
            0xe60e447407536684,
        ], // deconv_64_16
        [
            0x24c215248e06a02e,
            0xd21b9f4f26e45847,
            0xa8789200f1302aa4,
            0x5a8279c608f8d8f1,
            0x4eb81a8f8b557500,
            0xfe8ebd9179848c3e,
        ], // deconv_5_3
    ],
    // cpu_simd
    [
        [
            0x2990a550ab192146,
            0xf4f4f1232d1839cb,
            0x56d24a92ee2045a7,
            0x972c00fd229416f5,
            0xf1d46c6666721503,
            0xb36a4038b56bc21b,
        ], // conv_3_5
        [
            0x10a516031032186c,
            0x4750e8b3f8cd8b58,
            0xaa500af65c5ebd8e,
            0x1014e59b01d7f814,
            0x560cf0ffd466c9f0,
            0x0ca421205b29f3b7,
        ], // conv_16_64
        [
            0x848007869177eccd,
            0xd59db156378c5d42,
            0x3accae97ea137b7a,
            0xf4fa4419e2876d9a,
            0xec001355e8161618,
            0xa5ab42309e536f7b,
        ], // deconv_64_16
        [
            0x6370752104954510,
            0xd8e1cc1023a5de80,
            0xb241ce786c47da3b,
            0xe692da6e76642980,
            0xbcc0437cd710a640,
            0x6b0850eef9270988,
        ], // deconv_5_3
    ],
];

fn seeded(shape: Shape, step: F, phase: F) -> Tensor<F> {
    let n = shape.numel();
    Tensor::from_vec(
        shape,
        (0..n).map(|i| (i as F * step + phase).sin()).collect(),
    )
}

/// FNV-1a over the f32 bit patterns of `ts`, in order.
fn hash_bits(ts: &[&Tensor<F>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in ts {
        for v in t.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn layer(ic: usize, oc: usize, transposed: bool, dev: Device) -> Box<dyn Layer> {
    let mut l: Box<dyn Layer> = if transposed {
        Box::new(ConvTranspose2d::new(ic, oc, 3, Initializer::HeNormal, 7))
    } else {
        Box::new(Conv2d::new(ic, oc, 3, Initializer::HeNormal, 7))
    };
    l.set_device(dev);
    // Seeded weights and a nonzero bias, independent of the initializer.
    for (i, p) in l.params_mut().into_iter().enumerate() {
        let s = seeded(p.shape().clone(), 0.0811, 0.3 + i as F);
        p.as_mut_slice().copy_from_slice(s.as_slice());
    }
    l
}

fn case_hash(
    dev: Device,
    ic: usize,
    oc: usize,
    transposed: bool,
    extent: (usize, usize, usize),
) -> u64 {
    let (n, h, w) = extent;
    let mut l = layer(ic, oc, transposed, dev);
    let mut dxs = Vec::new();
    for round in 0..2 {
        let phase = round as F;
        let x = seeded(Shape::d4(n, ic, h, w), 0.1307, phase);
        let y = l.forward(&x);
        let dy = seeded(y.shape().clone(), 0.0593, 0.5 + phase);
        dxs.push(l.backward(&dy));
    }
    let grads = l.grads();
    hash_bits(&[grads[0], grads[1], &dxs[0], &dxs[1]])
}

fn hashes(dev: Device) -> [[u64; 6]; 4] {
    let mut out = [[0u64; 6]; 4];
    for (row, &(_, ic, oc, transposed)) in out.iter_mut().zip(&LAYERS) {
        for (slot, &extent) in row.iter_mut().zip(&EXTENTS) {
            *slot = case_hash(dev, ic, oc, transposed, extent);
        }
    }
    out
}

#[test]
fn conv_gradients_match_the_parent_commit_bitwise() {
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
            for ((name, ..), row) in LAYERS.iter().zip(table) {
                let cells: Vec<String> = row.iter().map(|h| format!("{h:#018x}")).collect();
                eprintln!("        [{}], // {name}", cells.join(", "));
            }
            eprintln!("    ],");
        }
    }
    for (d, dev) in ["cpu_scalar", "cpu_simd"].iter().enumerate() {
        for (l, (name, ..)) in LAYERS.iter().enumerate() {
            for (e, &(n, h, w)) in EXTENTS.iter().enumerate() {
                assert_eq!(
                    got[d][l][e], want[d][l][e],
                    "{name} on {dev}, batch {n} at {h}x{w}: dW/db/dX hash moved"
                );
            }
        }
    }
}

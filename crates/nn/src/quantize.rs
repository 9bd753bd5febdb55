//! Reduced-precision weight storage: bf16 (bfloat16) packing for the
//! frozen GEMM A-panels, and the [`Precision`] axis that selects it.
//!
//! bf16 is the top 16 bits of an IEEE-754 f32: 1 sign bit, the full
//! 8-bit exponent, and 7 mantissa bits. Keeping the whole exponent
//! means narrowing never overflows or flushes to zero anywhere f32
//! itself wouldn't — the entire f32 dynamic range survives — so the
//! only loss is mantissa rounding, bounded at 2^-8 relative per weight.
//! That makes it the right format for *weights* specifically: conv
//! weights after Xavier/He init and training sit well within bf16's
//! range, while activations and accumulation stay f32 end to end (the
//! GEMM driver widens each weight back to f32 before the FMA), so
//! error does not compound through the reduction.
//!
//! Narrowing uses round-to-nearest-even (RNE), the same tie-breaking
//! IEEE arithmetic itself uses: add `0x7FFF + lsb` to the f32 bits and
//! truncate. Versus truncation, RNE halves the worst-case error and —
//! because ties round to even — introduces no systematic bias across a
//! weight tensor, which matters when thousands of quantized weights
//! contribute to one output pixel. NaNs are quieted explicitly so a NaN
//! can never round *into* an infinity.
//!
//! This module is the **only** place f32→bf16 narrowing is allowed; the
//! repo lint's `lossy-cast` rule flags [`f32_to_bf16`] call sites
//! anywhere else (see `crates/check/src/rules.rs`).

use std::sync::OnceLock;

use crate::kernels::{packed_panels_len, MR};
use crate::F;

/// Weight-plane storage precision for frozen inference models.
///
/// Selected at `freeze()` time: [`Precision::F32`] keeps the historical
/// f32 panels (bitwise contracts intact); [`Precision::Bf16`] packs the
/// GEMM A-panels to bf16, roughly halving resident weight bytes while
/// activations and accumulation stay f32.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full-precision f32 weight panels (the default).
    #[default]
    F32,
    /// bf16 weight panels, f32 activations and accumulation.
    Bf16,
}

/// Number of [`Precision`] variants (sizes per-precision tables).
pub const PRECISION_COUNT: usize = 2;

impl Precision {
    /// The process-wide default precision: `ADARNET_PRECISION` when set
    /// to a recognized name (`f32` / `bf16`), else [`Precision::F32`].
    /// Read once and cached for the life of the process, mirroring
    /// [`crate::Device::active`].
    pub fn active() -> Precision {
        static ACTIVE: OnceLock<Precision> = OnceLock::new();
        *ACTIVE.get_or_init(|| match std::env::var("ADARNET_PRECISION") {
            Ok(name) => Precision::from_name(&name).unwrap_or_default(),
            Err(_) => Precision::F32,
        })
    }

    /// Parse a precision name (`f32`/`fp32`, `bf16`/`bfloat16`).
    pub fn from_name(name: &str) -> Option<Precision> {
        match name.trim() {
            "f32" | "fp32" => Some(Precision::F32),
            "bf16" | "bfloat16" => Some(Precision::Bf16),
            _ => None,
        }
    }

    /// Canonical precision name (`f32` / `bf16`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
        }
    }

    /// Stable small index (0 = f32, 1 = bf16): array slot for
    /// per-precision tables and the value of the `engine_precision`
    /// gauge / the wire codec's precision byte.
    pub fn index(self) -> usize {
        match self {
            Precision::F32 => 0,
            Precision::Bf16 => 1,
        }
    }

    /// Inverse of [`Precision::index`].
    pub fn from_index(idx: usize) -> Option<Precision> {
        match idx {
            0 => Some(Precision::F32),
            1 => Some(Precision::Bf16),
            _ => None,
        }
    }

    /// Bytes per stored weight element at this precision.
    pub fn weight_elem_bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::Bf16 => 2,
        }
    }
}

/// Widen one bf16 value (as raw bits) to f32. Exact: bf16 is a prefix
/// of f32, so widening is a 16-bit left shift and loses nothing.
#[inline(always)]
pub fn bf16_to_f32(bits: u16) -> f32 {
    f32::from_bits((bits as u32) << 16)
}

/// Narrow one f32 to bf16 bits with round-to-nearest-even.
///
/// The rounding increment is `0x7FFF` plus the lowest kept mantissa
/// bit, so exact ties round toward an even (zero) low bit. NaN payloads
/// are quieted (top mantissa bit forced on) rather than rounded, since
/// a signalling-NaN payload of all-ones-below-the-cut would otherwise
/// increment into an infinity bit pattern.
#[inline(always)]
pub fn f32_to_bf16(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = 0x7FFF + ((bits >> 16) & 1);
    ((bits + round) >> 16) as u16
}

/// Pack the weight matrix `ws` (`oc × k_len`, row-major) into the same
/// k-major, [`MR`]-blocked A-panel layout as
/// [`crate::kernels::pack_weight_panels`], narrowing each element to
/// bf16 (RNE). `dst` must be exactly
/// [`packed_panels_len`]`(oc, k_len)` elements; rows past `oc` are
/// zero-filled.
pub fn pack_weight_panels_bf16(ws: &[F], oc: usize, k_len: usize, dst: &mut [u16]) {
    assert_eq!(ws.len(), oc * k_len, "pack: weight matrix size mismatch");
    assert_eq!(
        dst.len(),
        packed_panels_len(oc, k_len),
        "pack: destination size mismatch"
    );
    for (blk, dblock) in dst.chunks_exact_mut(k_len * MR).enumerate() {
        let oc0 = blk * MR;
        for (k, dk) in dblock.chunks_exact_mut(MR).enumerate() {
            for (m, slot) in dk.iter_mut().enumerate() {
                *slot = if oc0 + m < oc {
                    f32_to_bf16(ws[(oc0 + m) * k_len + k])
                } else {
                    0
                };
            }
        }
    }
}

/// Borrowed view of bf16-packed conv weight panels: the reduced-precision
/// twin of [`crate::kernels::PackedPanels`], same layout and shape
/// metadata, elements stored as bf16 bits.
#[derive(Clone, Copy)]
pub struct PackedPanelsBf16<'a> {
    /// Packed panel data, [`packed_panels_len`]`(oc, ic*kh*kw)` bf16
    /// elements.
    pub data: &'a [u16],
    /// Output channels.
    pub oc: usize,
    /// Input channels.
    pub ic: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_indices_round_trip() {
        for p in [Precision::F32, Precision::Bf16] {
            assert_eq!(Precision::from_name(p.name()), Some(p));
            assert_eq!(Precision::from_index(p.index()), Some(p));
        }
        assert_eq!(Precision::from_name("bfloat16"), Some(Precision::Bf16));
        assert_eq!(Precision::from_name("int8"), None);
        assert_eq!(Precision::from_index(7), None);
        assert_eq!(Precision::default(), Precision::F32);
    }

    #[test]
    fn widening_is_exact_on_bf16_representable_values() {
        // Values whose low 16 f32 bits are zero survive the round trip
        // bitwise: powers of two, small integers, zero, infinities.
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -2.0,
            0.5,
            96.0,
            f32::INFINITY,
            f32::MIN_POSITIVE,
        ] {
            assert_eq!(bf16_to_f32(f32_to_bf16(v)).to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn narrowing_rounds_to_nearest_even() {
        // 1.0 + 2^-8 sits exactly between bf16 neighbors 1.0 (even low
        // bit) and 1.0078125; RNE must pick 1.0.
        let tie = f32::from_bits(0x3F80_8000);
        assert_eq!(bf16_to_f32(f32_to_bf16(tie)), 1.0);
        // 1.0 + 3*2^-8 ties between 1.0078125 (odd) and 1.015625
        // (even); RNE must round up to the even neighbor.
        let tie_up = f32::from_bits(0x3F81_8000);
        assert_eq!(bf16_to_f32(f32_to_bf16(tie_up)), 1.015_625);
        // Anything past the halfway point rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(bf16_to_f32(f32_to_bf16(above)), 1.007_812_5);
    }

    #[test]
    fn narrowing_error_is_bounded() {
        // Relative error of RNE narrowing is at most 2^-8 for normal
        // values (half the 7-bit mantissa ulp).
        for i in 0..10_000 {
            let v = ((i as f32) * 0.137 + 0.001).sin() * 3.0;
            let q = bf16_to_f32(f32_to_bf16(v));
            assert!(
                (q - v).abs() <= v.abs() * (1.0 / 256.0) + f32::MIN_POSITIVE,
                "v={v} q={q}"
            );
        }
    }

    #[test]
    fn nan_narrows_to_nan_never_infinity() {
        // A signalling-style payload of all ones below the cut would
        // carry-propagate into the exponent if naively rounded.
        let snan = f32::from_bits(0x7F80_FFFF);
        let q = bf16_to_f32(f32_to_bf16(snan));
        assert!(q.is_nan(), "got {q}");
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
    }

    #[test]
    fn bf16_pack_matches_f32_pack_layout() {
        use crate::kernels::pack_weight_panels;
        // oc = 5 forces a ragged row block; the bf16 pack must mirror
        // the f32 pack slot for slot (narrowed) including zero fill.
        let (oc, k_len) = (5usize, 18usize);
        let ws: Vec<F> = (0..oc * k_len).map(|i| (i as F * 0.31).cos()).collect();
        let mut f32p = vec![0.0f32; packed_panels_len(oc, k_len)];
        pack_weight_panels(&ws, oc, k_len, &mut f32p);
        let mut bf16p = vec![0u16; packed_panels_len(oc, k_len)];
        pack_weight_panels_bf16(&ws, oc, k_len, &mut bf16p);
        for (a, &b) in f32p.iter().zip(&bf16p) {
            assert_eq!(f32_to_bf16(*a), b);
        }
        // Dead rows of the ragged block read as exact zero.
        assert_eq!(bf16_to_f32(bf16p[packed_panels_len(4, k_len) + 1]), 0.0);
    }
}

//! The hybrid semi-supervised loss (Eq. 1): LR data MSE plus
//! lambda-weighted PDE residual, with exact gradients for the decoder's
//! backward pass.
//!
//! * **Data loss** — MSE against the LR ground truth. Patches that stayed
//!   at LR are compared directly; HR patches are bicubically downsampled
//!   to LR first and matched in the downsampled space (§3.2), which is how
//!   the paper avoids HR labels entirely.
//! * **PDE loss** — continuity + momentum residuals on the predicted
//!   patch at its own resolution ([`crate::pde`]), computed on
//!   *denormalized* physical values (the paper notes gradients cannot be
//!   scaled without corrupting the residual, §5.1).
//! * Balance: `L = data + lambda * pde`, `lambda = 0.03` after the paper's
//!   sensitivity study.

use adarnet_nn::{bicubic_resize3, bicubic_resize3_adjoint};
use adarnet_tensor::Tensor;
use serde::{field, object, DeError, Deserialize, Serialize, Value};

use crate::pde::{residual_loss_and_grad, Field};

/// Per-channel min/max used to scale the four flow variables to `[0, 1]`
/// during training (§5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormStats {
    /// Per-channel minimum.
    pub lo: [f32; 4],
    /// Per-channel maximum.
    pub hi: [f32; 4],
}

impl Serialize for NormStats {
    fn to_value(&self) -> Value {
        object([("lo", self.lo.to_value()), ("hi", self.hi.to_value())])
    }
}

impl Deserialize for NormStats {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(NormStats {
            lo: field(value, "lo", "NormStats")?,
            hi: field(value, "hi", "NormStats")?,
        })
    }
}

impl NormStats {
    /// Identity normalization (lo 0, hi 1).
    pub fn identity() -> NormStats {
        NormStats {
            lo: [0.0; 4],
            hi: [1.0; 4],
        }
    }

    /// Compute stats over a set of `(4, H, W)` samples.
    pub fn from_samples<'a>(samples: impl IntoIterator<Item = &'a Tensor<f32>>) -> NormStats {
        let mut lo = [f32::INFINITY; 4];
        let mut hi = [f32::NEG_INFINITY; 4];
        let mut any = false;
        for t in samples {
            assert_eq!(t.dim(0), 4, "expected 4-channel samples");
            any = true;
            let plane = t.dim(1) * t.dim(2);
            for c in 0..4 {
                for &v in &t.as_slice()[c * plane..(c + 1) * plane] {
                    lo[c] = lo[c].min(v);
                    hi[c] = hi[c].max(v);
                }
            }
        }
        assert!(any, "no samples provided");
        // Guard degenerate channels.
        for c in 0..4 {
            if hi[c] - lo[c] < 1e-12 {
                hi[c] = lo[c] + 1.0;
            }
        }
        NormStats { lo, hi }
    }

    /// Channel span `hi - lo`.
    pub fn span(&self, c: usize) -> f32 {
        self.hi[c] - self.lo[c]
    }

    /// Normalize a `(4, H, W)` tensor channelwise to `[0, 1]`.
    pub fn normalize(&self, t: &Tensor<f32>) -> Tensor<f32> {
        self.affine(t, true)
    }

    /// Invert [`NormStats::normalize`].
    pub fn denormalize(&self, t: &Tensor<f32>) -> Tensor<f32> {
        self.affine(t, false)
    }

    fn affine(&self, t: &Tensor<f32>, forward: bool) -> Tensor<f32> {
        assert_eq!(t.dim(0), 4, "expected 4-channel tensor");
        let plane = t.dim(1) * t.dim(2);
        // Pool-backed output: normalize runs once per field per inference,
        // squarely on the zero-allocation hot path.
        let mut out = t.pooled_copy();
        for c in 0..4 {
            let (lo, span) = (self.lo[c], self.span(c));
            for v in &mut out.as_mut_slice()[c * plane..(c + 1) * plane] {
                *v = if forward {
                    (*v - lo) / span
                } else {
                    *v * span + lo
                };
            }
        }
        out
    }
}

/// Hybrid loss configuration.
#[derive(Debug, Clone, Copy)]
pub struct LossConfig {
    /// PDE weight (0.03 per the paper's calibration, §5.1).
    pub lambda: f64,
    /// Laminar viscosity for the effective-viscosity coefficient.
    pub nu: f64,
    /// Level-0 cell sizes `(dy0, dx0)` for the residual stencils.
    pub dy0: f64,
    /// See `dy0`.
    pub dx0: f64,
    /// Residual nondimensionalization scale (e.g. `u_ref^2 / l_ref`).
    /// Residuals are divided by this before squaring so the PDE term is
    /// O(1) and the paper's `lambda = 0.03` balances the two terms
    /// (§5.1's calibration, restated for our units).
    pub r_scale: f64,
}

impl LossConfig {
    /// The paper's configuration for a given level-0 spacing
    /// (dimensionless residuals: `r_scale = 1`).
    pub fn paper(dy0: f64, dx0: f64) -> LossConfig {
        LossConfig {
            lambda: 0.03,
            nu: 1e-5,
            dy0,
            dx0,
            r_scale: 1.0,
        }
    }
}

/// Loss components for one patch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchLoss {
    /// Data (MSE) component, in normalized units.
    pub data: f64,
    /// PDE residual component, in physical units.
    pub pde: f64,
}

impl PatchLoss {
    /// The combined scalar `data + lambda * pde`.
    pub fn total(&self, lambda: f64) -> f64 {
        self.data + lambda * self.pde
    }
}

/// Compute the hybrid loss and its gradient for one predicted patch.
///
/// * `pred` — the decoder output `(4, h, w)` at refinement level `level`
///   (normalized space).
/// * `lr_label` — the LR ground-truth patch `(4, ph, pw)` (normalized).
/// * Returns the loss components and `dL/dpred` `(4, h, w)`.
pub fn hybrid_loss_and_grad(
    pred: &Tensor<f32>,
    lr_label: &Tensor<f32>,
    level: u8,
    norm: &NormStats,
    cfg: &LossConfig,
) -> (PatchLoss, Tensor<f32>) {
    assert_eq!(pred.dim(0), 4, "pred must have 4 channels");
    assert_eq!(lr_label.dim(0), 4, "label must have 4 channels");
    let (h, w) = (pred.dim(1), pred.dim(2));
    let (ph, pw) = (lr_label.dim(1), lr_label.dim(2));
    assert_eq!(
        (h, w),
        (ph << level, pw << level),
        "pred extent does not match label at level {level}"
    );

    let mut grad = Tensor::<f32>::zeros(pred.shape().clone());

    // --- Data loss: match the LR label in the downsampled space. ---
    let data_loss;
    if level == 0 {
        let n = pred.len() as f64;
        let mut acc = 0.0;
        for (g, (&a, &b)) in grad
            .as_mut_slice()
            .iter_mut()
            .zip(pred.as_slice().iter().zip(lr_label.as_slice()))
        {
            let d = (a - b) as f64;
            acc += d * d;
            *g = (2.0 * d / n) as f32;
        }
        data_loss = acc / n;
    } else {
        let down = bicubic_resize3(pred, ph, pw);
        let n = down.len() as f64;
        let mut acc = 0.0;
        let mut ddown = Tensor::<f32>::zeros(down.shape().clone());
        for (g, (&a, &b)) in ddown
            .as_mut_slice()
            .iter_mut()
            .zip(down.as_slice().iter().zip(lr_label.as_slice()))
        {
            let d = (a - b) as f64;
            acc += d * d;
            *g = (2.0 * d / n) as f32;
        }
        data_loss = acc / n;
        // Chain through the (linear) bicubic downsample.
        let back = bicubic_resize3_adjoint(&ddown, h, w);
        grad.axpy_inplace(1.0, &back);
    }

    // --- PDE loss on denormalized physical values. ---
    let denorm = norm.denormalize(pred);
    let plane = h * w;
    let u = Field::from_f32(h, w, &denorm.as_slice()[..plane]);
    let v = Field::from_f32(h, w, &denorm.as_slice()[plane..2 * plane]);
    let p = Field::from_f32(h, w, &denorm.as_slice()[2 * plane..3 * plane]);
    // Frozen effective viscosity from the predicted nu_tilde channel.
    let nu_eff = Field {
        h,
        w,
        a: denorm.as_slice()[3 * plane..4 * plane]
            .iter()
            .map(|&nt| cfg.nu + (nt as f64).max(0.0))
            .collect(),
    };
    let s = (1u64 << level) as f64;
    let (dy, dx) = (cfg.dy0 / s, cfg.dx0 / s);
    let (pde_raw, du, dv, dp) = residual_loss_and_grad(&u, &v, &p, &nu_eff, dy, dx);
    // Nondimensionalize: dividing residuals by r_scale scales the squared
    // loss (and its gradients) by 1 / r_scale^2.
    let inv_s2 = 1.0 / (cfg.r_scale * cfg.r_scale);
    let pde_loss = pde_raw * inv_s2;

    // Chain rule through denormalization (x_phys = x_norm * span + lo) and
    // the lambda weight.
    let gslice = grad.as_mut_slice();
    for k in 0..plane {
        gslice[k] += (cfg.lambda * inv_s2 * du.a[k]) as f32 * norm.span(0);
        gslice[plane + k] += (cfg.lambda * inv_s2 * dv.a[k]) as f32 * norm.span(1);
        gslice[2 * plane + k] += (cfg.lambda * inv_s2 * dp.a[k]) as f32 * norm.span(2);
        // nu_tilde channel: frozen in the PDE term, data-only gradient.
    }

    (
        PatchLoss {
            data: data_loss,
            pde: pde_loss,
        },
        grad,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_tensor::Shape;

    fn norm() -> NormStats {
        NormStats {
            lo: [0.0, -0.5, -1.0, 0.0],
            hi: [2.0, 0.5, 1.0, 1e-3],
        }
    }

    fn pseudo(shape: Shape, seed: u64) -> Tensor<f32> {
        let n = shape.numel();
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let data = (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) * 0.5
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn norm_stats_roundtrip() {
        let t = pseudo(Shape::d3(4, 6, 6), 1);
        let n = NormStats::from_samples([&t]);
        let normed = n.normalize(&t);
        assert!(normed.min_value() >= -1e-6 && normed.max_value() <= 1.0 + 1e-6);
        let back = n.denormalize(&normed);
        assert!(back.mse(&t) < 1e-10);
    }

    #[test]
    fn perfect_lr_prediction_has_zero_data_loss() {
        let label = pseudo(Shape::d3(4, 8, 8), 2);
        let cfg = LossConfig::paper(0.1, 0.1);
        let (loss, _) = hybrid_loss_and_grad(&label, &label, 0, &norm(), &cfg);
        assert!(loss.data < 1e-12);
        // PDE loss generally nonzero for a random field.
        assert!(loss.pde > 0.0);
    }

    #[test]
    fn data_gradient_matches_finite_difference_level0() {
        let mut pred = pseudo(Shape::d3(4, 4, 4), 3);
        let label = pseudo(Shape::d3(4, 4, 4), 4);
        let cfg = LossConfig {
            lambda: 0.0, // isolate the data term
            ..LossConfig::paper(0.1, 0.1)
        };
        let (_, grad) = hybrid_loss_and_grad(&pred, &label, 0, &norm(), &cfg);
        let eps = 1e-3f32;
        for k in [0usize, 13, 31, 63] {
            let orig = pred.as_slice()[k];
            pred.as_mut_slice()[k] = orig + eps;
            let lp = hybrid_loss_and_grad(&pred, &label, 0, &norm(), &cfg).0.data;
            pred.as_mut_slice()[k] = orig - eps;
            let lm = hybrid_loss_and_grad(&pred, &label, 0, &norm(), &cfg).0.data;
            pred.as_mut_slice()[k] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - grad.as_slice()[k]).abs() < 1e-3 * (1.0 + num.abs()),
                "grad[{k}]: {num} vs {}",
                grad.as_slice()[k]
            );
        }
    }

    #[test]
    fn hybrid_gradient_matches_finite_difference_level1() {
        let mut pred = pseudo(Shape::d3(4, 8, 8), 5);
        let label = pseudo(Shape::d3(4, 4, 4), 6);
        let cfg = LossConfig::paper(0.25, 0.25);
        let n = norm();
        let (_, grad) = hybrid_loss_and_grad(&pred, &label, 1, &n, &cfg);
        let eps = 1e-3f32;
        let total = |p: &Tensor<f32>| -> f64 {
            let (l, _) = hybrid_loss_and_grad(p, &label, 1, &n, &cfg);
            l.total(cfg.lambda)
        };
        for k in [5usize, 70, 140, 230] {
            let orig = pred.as_slice()[k];
            pred.as_mut_slice()[k] = orig + eps;
            let lp = total(&pred);
            pred.as_mut_slice()[k] = orig - eps;
            let lm = total(&pred);
            pred.as_mut_slice()[k] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = grad.as_slice()[k];
            assert!(
                (num - ana).abs() < 5e-3 * (1.0 + num.abs().max(ana.abs())),
                "grad[{k}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn nu_tilde_channel_gets_data_gradient_only() {
        let pred = pseudo(Shape::d3(4, 4, 4), 7);
        let label = pseudo(Shape::d3(4, 4, 4), 8);
        let data_only = LossConfig {
            lambda: 0.0,
            ..LossConfig::paper(0.1, 0.1)
        };
        let full = LossConfig::paper(0.1, 0.1);
        let (_, g0) = hybrid_loss_and_grad(&pred, &label, 0, &norm(), &data_only);
        let (_, g1) = hybrid_loss_and_grad(&pred, &label, 0, &norm(), &full);
        // Last channel identical with and without the PDE term (frozen).
        let plane = 16;
        for k in 3 * plane..4 * plane {
            assert_eq!(g0.as_slice()[k], g1.as_slice()[k]);
        }
        // But u channel differs.
        assert!(g0
            .as_slice()
            .iter()
            .take(plane)
            .zip(g1.as_slice())
            .any(|(a, b)| a != b));
    }

    #[test]
    fn lambda_scales_pde_contribution() {
        let pred = pseudo(Shape::d3(4, 4, 4), 9);
        let label = pred.clone(); // zero data term
        let n = norm();
        let cfg1 = LossConfig {
            lambda: 0.01,
            ..LossConfig::paper(0.1, 0.1)
        };
        let cfg2 = LossConfig {
            lambda: 0.02,
            ..LossConfig::paper(0.1, 0.1)
        };
        let (_, g1) = hybrid_loss_and_grad(&pred, &label, 0, &n, &cfg1);
        let (_, g2) = hybrid_loss_and_grad(&pred, &label, 0, &n, &cfg2);
        // Gradients double with lambda (pure PDE contribution).
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((2.0 * a - b).abs() < 1e-6 * (1.0 + b.abs()), "{a} {b}");
        }
    }
}

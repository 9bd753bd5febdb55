//! The Spalart–Allmaras one-equation turbulence model (Eq. 4 of the paper).
//!
//! Standard SA closure with the constants of the original reference
//! (Spalart & Allmaras 1992), as the paper specifies: "The constants of the
//! model are those in its original reference". Trip terms (`ft1`, `ft2`)
//! are omitted, i.e. the fully-turbulent variant that production-grade
//! codes (including OpenFOAM's `SpalartAllmaras`) default to.

/// SA model constants (original 1992 values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConstants {
    /// Production coefficient.
    pub cb1: f64,
    /// Gradient-squared diffusion coefficient.
    pub cb2: f64,
    /// Turbulent Prandtl-like diffusion constant.
    pub sigma: f64,
    /// Von Karman constant.
    pub kappa: f64,
    /// Wall destruction coefficient (derived: `cb1/kappa^2 + (1+cb2)/sigma`).
    pub cw1: f64,
    /// `fw` shape constant.
    pub cw2: f64,
    /// `fw` limit constant.
    pub cw3: f64,
    /// Viscous damping constant.
    pub cv1: f64,
}

impl SaConstants {
    /// The original-reference constants.
    pub const fn standard() -> Self {
        let cb1 = 0.1355;
        let cb2 = 0.622;
        let sigma = 2.0 / 3.0;
        let kappa = 0.41;
        SaConstants {
            cb1,
            cb2,
            sigma,
            kappa,
            cw1: cb1 / (kappa * kappa) + (1.0 + cb2) / sigma,
            cw2: 0.3,
            cw3: 2.0,
            cv1: 7.1,
        }
    }
}

impl Default for SaConstants {
    fn default() -> Self {
        Self::standard()
    }
}

/// Viscous damping function `fv1 = chi^3 / (chi^3 + cv1^3)`, where
/// `chi = nu_tilde / nu`. The eddy viscosity is `nu_t = nu_tilde * fv1`.
#[inline]
pub fn fv1(chi: f64, c: &SaConstants) -> f64 {
    let chi3 = chi * chi * chi;
    chi3 / (chi3 + c.cv1 * c.cv1 * c.cv1)
}

/// Damping function `fv2 = 1 - chi / (1 + chi * fv1)`.
#[inline]
pub fn fv2(chi: f64, c: &SaConstants) -> f64 {
    1.0 - chi / (1.0 + chi * fv1(chi, c))
}

/// Modified vorticity `S_tilde = Omega + nu_tilde/(kappa^2 d^2) * fv2`,
/// clipped below at `0.3 * Omega` (the standard guard against negative
/// `S_tilde` destabilizing `r`).
#[inline]
pub fn s_tilde(omega: f64, nu_tilde: f64, d: f64, chi: f64, c: &SaConstants) -> f64 {
    let s = omega + nu_tilde / (c.kappa * c.kappa * d * d) * fv2(chi, c);
    s.max(0.3 * omega).max(1e-16)
}

/// `x^6` in the order `powi(6)` evaluates it, both as LLVM's release
/// expansion and as `__powidf2` in a debug build: `x2 * (x2 * x2)`.
#[inline]
fn pow6(x: f64) -> f64 {
    let x2 = x * x;
    x2 * (x2 * x2)
}

/// Wall function `fw(r)` with `r = min(nu_tilde / (S_tilde kappa^2 d^2), 10)`.
#[inline]
pub fn fw(nu_tilde: f64, s_t: f64, d: f64, c: &SaConstants) -> f64 {
    let (g, arg) = fw_parts(nu_tilde, s_t, d, c);
    g * arg.powf(1.0 / 6.0)
}

/// [`fw`] split around its one `powf`: `(g, arg)` with
/// `fw = g * arg^(1/6)`.
#[inline]
pub(crate) fn fw_parts(nu_tilde: f64, s_t: f64, d: f64, c: &SaConstants) -> (f64, f64) {
    let r = (nu_tilde / (s_t * c.kappa * c.kappa * d * d)).min(10.0);
    let g = r + c.cw2 * (pow6(r) - r);
    let c6 = pow6(c.cw3);
    (g, (1.0 + c6) / (pow6(g) + c6))
}

/// Eddy viscosity from the working variable: `nu_t = nu_tilde * fv1(chi)`,
/// zero where `nu_tilde <= 0`.
#[inline]
pub fn eddy_viscosity(nu_tilde: f64, nu: f64, c: &SaConstants) -> f64 {
    let nu_t = nu_tilde * fv1(nu_tilde / nu, c);
    // A select, not an early return: the sweep's row pass stays
    // branch-free.
    if nu_tilde <= 0.0 {
        0.0
    } else {
        nu_t
    }
}

/// Net local SA source (production minus destruction) per unit volume:
/// `cb1 * S_tilde * nu_tilde - cw1 * fw * (nu_tilde / d)^2`, zero where
/// `nu_tilde <= 0` (the working variable is kept non-negative; no source
/// in laminar/zero cells).
///
/// `omega` is the vorticity magnitude, `d` the wall distance (clamped
/// positive by the caller).
#[inline]
pub fn source(nu_tilde: f64, nu: f64, omega: f64, d: f64, c: &SaConstants) -> f64 {
    let (production, g, arg) = source_parts(nu_tilde, nu, omega, d, c);
    source_finish(production, g, arg.powf(1.0 / 6.0), nu_tilde, d, c)
}

/// [`source`] up to its one `powf`: the production term and the
/// [`fw_parts`] of the destruction term.
#[inline]
pub(crate) fn source_parts(
    nu_tilde: f64,
    nu: f64,
    omega: f64,
    d: f64,
    c: &SaConstants,
) -> (f64, f64, f64) {
    let chi = nu_tilde / nu;
    let s_t = s_tilde(omega, nu_tilde, d, chi, c);
    let production = c.cb1 * s_t * nu_tilde;
    let (g, arg) = fw_parts(nu_tilde, s_t, d, c);
    (production, g, arg)
}

/// [`source`] from its [`source_parts`] and `root = arg^(1/6)`.
#[inline]
pub(crate) fn source_finish(
    production: f64,
    g: f64,
    root: f64,
    nu_tilde: f64,
    d: f64,
    c: &SaConstants,
) -> f64 {
    let destruction = c.cw1 * (g * root) * (nu_tilde / d) * (nu_tilde / d);
    let src = production - destruction;
    if nu_tilde <= 0.0 {
        0.0
    } else {
        src
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: SaConstants = SaConstants::standard();

    #[test]
    fn cw1_derived_correctly() {
        // cw1 = cb1/kappa^2 + (1 + cb2)/sigma ~ 3.2391
        assert!((C.cw1 - 3.2390678).abs() < 1e-6, "{}", C.cw1);
    }

    #[test]
    fn fv1_limits() {
        // chi -> 0: fv1 -> 0 (laminar); chi -> inf: fv1 -> 1 (fully turbulent).
        assert!(fv1(1e-6, &C) < 1e-12);
        assert!(fv1(1e6, &C) > 1.0 - 1e-12);
        // Known mid value: chi = cv1 gives exactly 0.5.
        assert!((fv1(C.cv1, &C) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fv2_limits() {
        // chi -> 0: fv2 -> 1.
        assert!((fv2(1e-9, &C) - 1.0).abs() < 1e-6);
        // Large chi: fv2 -> 1 - 1/fv1 ~ small negative-to-zero range; just
        // check boundedness.
        let v = fv2(100.0, &C);
        assert!(v > -1.0 && v < 1.0, "{v}");
    }

    #[test]
    fn fw_equilibrium_value() {
        // At r = 1: g = 1, fw = ((1 + cw3^6)/(1 + cw3^6))^(1/6) = 1.
        // Choose inputs that give r = 1: nu_tilde = s_t * kappa^2 * d^2.
        let d = 0.1;
        let s_t = 10.0;
        let nt = s_t * C.kappa * C.kappa * d * d;
        assert!((fw(nt, s_t, d, &C) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fw_monotone_in_r() {
        let d = 0.1;
        let s_t = 10.0;
        let nt1 = 0.5 * s_t * C.kappa * C.kappa * d * d; // r = 0.5
        let nt2 = 2.0 * s_t * C.kappa * C.kappa * d * d; // r = 2
        assert!(fw(nt1, s_t, d, &C) < 1.0);
        assert!(fw(nt2, s_t, d, &C) > 1.0);
    }

    #[test]
    fn source_sign_structure() {
        let nu = 1e-5;
        // High vorticity far from wall: production dominates.
        assert!(source(5.0 * nu, nu, 100.0, 1.0, &C) > 0.0);
        // No vorticity very near a wall: destruction dominates.
        assert!(source(5.0 * nu, nu, 0.0, 1e-3, &C) < 0.0);
        // Zero working variable: no source.
        assert_eq!(source(0.0, nu, 50.0, 0.1, &C), 0.0);
    }

    #[test]
    fn eddy_viscosity_laminar_limit() {
        let nu = 1.5e-5;
        // nu_tilde << nu: nu_t negligible.
        assert!(eddy_viscosity(0.01 * nu, nu, &C) < 1e-3 * nu);
        // nu_tilde >> nu: nu_t ~ nu_tilde.
        let nt = 1000.0 * nu;
        assert!((eddy_viscosity(nt, nu, &C) - nt).abs() / nt < 1e-3);
        assert_eq!(eddy_viscosity(-1.0, nu, &C), 0.0);
    }

    #[test]
    fn s_tilde_clip_guards_small_d() {
        // fv2 can go negative at moderate chi; the clip keeps S_tilde
        // positive and >= 0.3 * Omega.
        let omega = 10.0;
        let v = s_tilde(omega, 1e-3, 1e-4, 20.0, &C);
        assert!(v >= 0.3 * omega);
    }
}

//! Case geometries: the paper's three canonical flow families.
//!
//! * Channel flow: diameter 0.1 m, length 6 m, walls top and bottom (§4.1).
//! * Flat plate: height 0.2 m, length 10 m, wall bottom, symmetry top (§4.1).
//! * Flow around solid bodies (ellipse family, cylinder, NACA airfoils):
//!   the paper uses a body-fitted O-grid with a 30-chord far field. We
//!   substitute a Cartesian box with a stair-step immersed body (see
//!   DESIGN.md §2): inlet left, outlet right, symmetry top/bottom. The
//!   near-body physics — no-slip solid, wall distance for SA, the wake —
//!   are preserved; absolute drag carries larger discretization error.
//!
//! Bodies are closed polygons: point-in-polygon gives the solid mask,
//! distance-to-polyline gives the SA wall distance.

/// Physical boundary condition on one side of the rectangular domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideBc {
    /// Fixed velocity `(u_in, 0)`, fixed inflow `nu_tilde`, zero-gradient p.
    Inlet,
    /// Zero-gradient velocity and `nu_tilde`, fixed `p = 0`.
    Outlet,
    /// No-slip wall: zero velocity, `nu_tilde = 0`, zero-gradient p.
    Wall,
    /// Symmetry/free-slip: zero normal velocity, zero-gradient otherwise.
    Symmetry,
}

/// A closed polygonal body immersed in the domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Body {
    /// Boundary vertices, in order (closed implicitly).
    pub pts: Vec<(f64, f64)>,
}

impl Body {
    /// Circle of radius `r` centered at `(cx, cy)`, sampled with `n` points.
    pub fn cylinder(cx: f64, cy: f64, r: f64, n: usize) -> Body {
        assert!(n >= 8, "need at least 8 boundary points");
        let pts = (0..n)
            .map(|k| {
                let t = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
                (cx + r * t.cos(), cy + r * t.sin())
            })
            .collect();
        Body { pts }
    }

    /// Ellipse with semi-axes `(a, b)` centered at `(cx, cy)`, rotated by
    /// `alpha_deg` (angle of attack; Figure 7 of the paper).
    pub fn ellipse(cx: f64, cy: f64, a: f64, b: f64, alpha_deg: f64, n: usize) -> Body {
        assert!(n >= 8, "need at least 8 boundary points");
        let alpha = alpha_deg.to_radians();
        let (ca, sa) = (alpha.cos(), alpha.sin());
        let pts = (0..n)
            .map(|k| {
                let t = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
                let (x, y) = (a * t.cos(), b * t.sin());
                // Positive alpha pitches the nose up (rotate by -alpha).
                (cx + x * ca + y * sa, cy - x * sa + y * ca)
            })
            .collect();
        Body { pts }
    }

    /// NACA 4-digit airfoil (e.g. "0012", "1412"), chord `c`, leading edge
    /// at `(x_le, y_le)`, angle of attack `alpha_deg` (Figure 8).
    pub fn naca4(code: &str, c: f64, x_le: f64, y_le: f64, alpha_deg: f64, n: usize) -> Body {
        assert_eq!(code.len(), 4, "NACA 4-digit code expected");
        assert!(n >= 8, "need at least 8 boundary points per surface");
        #[expect(
            clippy::expect_used,
            reason = "constructor precondition on a compile-time-style code string (asserted 4 chars just above); a typed error would be noise for e.g. naca4(\"0012\", ...)"
        )]
        let digits: Vec<u32> = code
            .chars()
            .map(|ch| ch.to_digit(10).expect("NACA code must be digits"))
            .collect();
        let m = digits[0] as f64 / 100.0; // max camber
        let p = digits[1] as f64 / 10.0; // camber position
        let t = (digits[2] * 10 + digits[3]) as f64 / 100.0; // thickness

        // Closed-trailing-edge thickness distribution.
        let yt = |x: f64| -> f64 {
            5.0 * t
                * (0.2969 * x.sqrt() - 0.1260 * x - 0.3516 * x * x + 0.2843 * x * x * x
                    - 0.1036 * x * x * x * x)
        };
        let camber = |x: f64| -> (f64, f64) {
            // m and p are non-negative digit ratios; <= is the exact
            // zero test without a float equality.
            if m <= 0.0 || p <= 0.0 {
                (0.0, 0.0)
            } else if x < p {
                (
                    m / (p * p) * (2.0 * p * x - x * x),
                    2.0 * m / (p * p) * (p - x),
                )
            } else {
                (
                    m / ((1.0 - p) * (1.0 - p)) * ((1.0 - 2.0 * p) + 2.0 * p * x - x * x),
                    2.0 * m / ((1.0 - p) * (1.0 - p)) * (p - x),
                )
            }
        };

        let alpha = alpha_deg.to_radians();
        let (ca, sa) = (alpha.cos(), alpha.sin());
        let mut pts = Vec::with_capacity(2 * n);
        // Upper surface: leading edge -> trailing edge; lower: back. Cosine
        // clustering near the leading edge where curvature is highest.
        for k in 0..n {
            let beta = std::f64::consts::PI * k as f64 / (n - 1) as f64;
            let x = 0.5 * (1.0 - beta.cos());
            let (yc, dyc) = camber(x);
            let th = dyc.atan();
            let xu = x - yt(x) * th.sin();
            let yu = yc + yt(x) * th.cos();
            pts.push((xu, yu));
        }
        for k in (1..n - 1).rev() {
            let beta = std::f64::consts::PI * k as f64 / (n - 1) as f64;
            let x = 0.5 * (1.0 - beta.cos());
            let (yc, dyc) = camber(x);
            let th = dyc.atan();
            let xl = x + yt(x) * th.sin();
            let yl = yc - yt(x) * th.cos();
            pts.push((xl, yl));
        }
        // Scale by chord, rotate by -alpha about the leading edge, translate.
        let pts = pts
            .into_iter()
            .map(|(x, y)| {
                let (x, y) = (x * c, y * c);
                (x_le + x * ca + y * sa, y_le - x * sa + y * ca)
            })
            .collect();
        Body { pts }
    }

    /// Point-in-polygon by ray casting.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        let n = self.pts.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let (xi, yi) = self.pts[i];
            let (xj, yj) = self.pts[j];
            if ((yi > y) != (yj > y)) && (x < (xj - xi) * (y - yi) / (yj - yi) + xi) {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// Unsigned distance from `(x, y)` to the body boundary polyline.
    pub fn distance(&self, x: f64, y: f64) -> f64 {
        let n = self.pts.len();
        let mut best = f64::INFINITY;
        for i in 0..n {
            let (x1, y1) = self.pts[i];
            let (x2, y2) = self.pts[(i + 1) % n];
            let (dx, dy) = (x2 - x1, y2 - y1);
            let len2 = dx * dx + dy * dy;
            let t = if len2 > 0.0 {
                (((x - x1) * dx + (y - y1) * dy) / len2).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let (px, py) = (x1 + t * dx, y1 + t * dy);
            let d2 = (x - px) * (x - px) + (y - py) * (y - py);
            if d2 < best {
                best = d2;
            }
        }
        best.sqrt()
    }

    /// Axis-aligned bounding box `(xmin, ymin, xmax, ymax)`.
    pub fn bbox(&self) -> (f64, f64, f64, f64) {
        let mut bb = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for &(x, y) in &self.pts {
            bb.0 = bb.0.min(x);
            bb.1 = bb.1.min(y);
            bb.2 = bb.2.max(x);
            bb.3 = bb.3.max(y);
        }
        bb
    }

    /// Frontal (projected vertical) extent, the reference area for drag.
    pub fn frontal_height(&self) -> f64 {
        let (_, ymin, _, ymax) = self.bbox();
        ymax - ymin
    }
}

/// A complete flow case: domain, boundary conditions, fluid properties,
/// and an optional immersed body.
///
/// ```
/// use adarnet_cfd::CaseConfig;
///
/// let case = CaseConfig::channel(2.5e3); // a paper test case (§5)
/// assert_eq!(case.ly, 0.1);              // 0.1 m diameter
/// assert!((case.u_in - 0.25).abs() < 1e-12);
/// assert!(case.body.is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CaseConfig {
    /// Human-readable case name (used in reports).
    pub name: String,
    /// Domain length in x (meters).
    pub lx: f64,
    /// Domain height in y (meters).
    pub ly: f64,
    /// Inlet velocity (m/s).
    pub u_in: f64,
    /// Laminar kinematic viscosity (m^2/s).
    pub nu: f64,
    /// Boundary condition at `y = 0`.
    pub bottom: SideBc,
    /// Boundary condition at `y = ly`.
    pub top: SideBc,
    /// Boundary condition at `x = 0`.
    pub left: SideBc,
    /// Boundary condition at `x = lx`.
    pub right: SideBc,
    /// Immersed solid body, if any.
    pub body: Option<Body>,
    /// Reynolds number this case was configured for (bookkeeping).
    pub reynolds: f64,
}

/// Laminar kinematic viscosity shared by all cases (air-like).
pub const NU: f64 = 1e-5;

impl CaseConfig {
    /// Channel flow at Reynolds number `re` (based on the 0.1 m diameter):
    /// walls top and bottom, inlet left, outlet right (§4.1).
    pub fn channel(re: f64) -> CaseConfig {
        let d = 0.1;
        CaseConfig {
            name: format!("channel Re={re:.3e}"),
            lx: 6.0,
            ly: d,
            u_in: re * NU / d,
            nu: NU,
            bottom: SideBc::Wall,
            top: SideBc::Wall,
            left: SideBc::Inlet,
            right: SideBc::Outlet,
            body: None,
            reynolds: re,
        }
    }

    /// Flat plate at Reynolds number `re` (based on the 10 m plate length):
    /// wall bottom, symmetry top (§4.1).
    pub fn flat_plate(re: f64) -> CaseConfig {
        let l = 10.0;
        CaseConfig {
            name: format!("flat plate Re={re:.3e}"),
            lx: l,
            ly: 0.2,
            u_in: re * NU / l,
            nu: NU,
            bottom: SideBc::Wall,
            top: SideBc::Symmetry,
            left: SideBc::Inlet,
            right: SideBc::Outlet,
            body: None,
            reynolds: re,
        }
    }

    /// External flow around an immersed body of chord ~1 m in an 8 m x 2 m
    /// box (body centered at x = 2 m): inlet left, outlet right, symmetry
    /// top/bottom. Substitutes the paper's 30-chord O-grid (DESIGN.md §2).
    fn external(name: String, re: f64, body: Body) -> CaseConfig {
        let c = 1.0;
        CaseConfig {
            name,
            lx: 8.0,
            ly: 2.0,
            u_in: re * NU / c,
            nu: NU,
            bottom: SideBc::Symmetry,
            top: SideBc::Symmetry,
            left: SideBc::Inlet,
            right: SideBc::Outlet,
            body: Some(body),
            reynolds: re,
        }
    }

    /// Flow around a cylinder of diameter 1 m (test geometry, Figure 8).
    pub fn cylinder(re: f64) -> CaseConfig {
        Self::external(
            format!("cylinder Re={re:.3e}"),
            re,
            Body::cylinder(2.0, 1.0, 0.5, 256),
        )
    }

    /// Flow around the symmetric NACA0012 airfoil (test geometry, Figure 8).
    pub fn naca0012(re: f64) -> CaseConfig {
        Self::external(
            format!("NACA0012 Re={re:.3e}"),
            re,
            Body::naca4("0012", 1.0, 1.5, 1.0, 0.0, 128),
        )
    }

    /// Flow around the non-symmetric NACA1412 airfoil (test geometry,
    /// Figure 8).
    pub fn naca1412(re: f64) -> CaseConfig {
        Self::external(
            format!("NACA1412 Re={re:.3e}"),
            re,
            Body::naca4("1412", 1.0, 1.5, 1.0, 0.0, 128),
        )
    }

    /// Flow around a training-family ellipse (Figure 7): aspect ratio
    /// `b/a = aspect`, angle of attack `alpha_deg`.
    pub fn ellipse(aspect: f64, alpha_deg: f64, re: f64) -> CaseConfig {
        let a = 0.5; // semi-chord: chord 1 m
        Self::external(
            format!("ellipse ar={aspect} aoa={alpha_deg} Re={re:.3e}"),
            re,
            Body::ellipse(2.0, 1.0, a, a * aspect, alpha_deg, 256),
        )
    }

    /// True if `(x, y)` lies inside the solid body.
    pub fn is_solid(&self, x: f64, y: f64) -> bool {
        self.body
            .as_ref()
            .map(|b| b.contains(x, y))
            .unwrap_or(false)
    }

    /// Distance to the nearest no-slip wall (domain walls and/or body),
    /// used by the SA destruction term. Returns a large value if the case
    /// has no walls.
    pub fn wall_distance(&self, x: f64, y: f64) -> f64 {
        let mut d = f64::INFINITY;
        if self.bottom == SideBc::Wall {
            d = d.min(y);
        }
        if self.top == SideBc::Wall {
            d = d.min(self.ly - y);
        }
        if self.left == SideBc::Wall {
            d = d.min(x);
        }
        if self.right == SideBc::Wall {
            d = d.min(self.lx - x);
        }
        if let Some(body) = &self.body {
            d = d.min(body.distance(x, y));
        }
        if d.is_infinite() {
            // No walls anywhere: SA destruction vanishes.
            d = 1e6;
        }
        d.max(0.0)
    }

    /// Inflow value of the SA working variable (`nu_tilde = 3 nu`, the
    /// standard SA freestream recommendation).
    pub fn nu_tilde_inflow(&self) -> f64 {
        3.0 * self.nu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cylinder_contains_and_distance() {
        let b = Body::cylinder(0.0, 0.0, 1.0, 256);
        assert!(b.contains(0.0, 0.0));
        assert!(b.contains(0.5, 0.5));
        assert!(!b.contains(1.5, 0.0));
        // Distance from origin to unit circle boundary ~ 1.
        assert!((b.distance(0.0, 0.0) - 1.0).abs() < 1e-3);
        // Distance from (2, 0) ~ 1.
        assert!((b.distance(2.0, 0.0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn ellipse_respects_aspect_and_rotation() {
        let b = Body::ellipse(0.0, 0.0, 1.0, 0.25, 0.0, 256);
        assert!(b.contains(0.9, 0.0));
        assert!(!b.contains(0.0, 0.5));
        let (xmin, ymin, xmax, ymax) = b.bbox();
        assert!((xmax - xmin - 2.0).abs() < 1e-2);
        assert!((ymax - ymin - 0.5).abs() < 1e-2);
        // 90-degree rotation swaps the extents.
        let b90 = Body::ellipse(0.0, 0.0, 1.0, 0.25, 90.0, 256);
        let (x0, y0, x1, y1) = b90.bbox();
        assert!((x1 - x0 - 0.5).abs() < 1e-2);
        assert!((y1 - y0 - 2.0).abs() < 1e-2);
    }

    #[test]
    fn naca0012_is_symmetric() {
        let b = Body::naca4("0012", 1.0, 0.0, 0.0, 0.0, 64);
        // Max thickness of a 0012 is 12% of chord.
        let (_, ymin, _, ymax) = b.bbox();
        assert!((ymax - ymin - 0.12).abs() < 5e-3, "{}", ymax - ymin);
        assert!((ymax + ymin).abs() < 1e-9, "symmetric about the chord line");
        // Mid-chord interior point is inside; above the surface is not.
        assert!(b.contains(0.3, 0.0));
        assert!(!b.contains(0.3, 0.08));
    }

    #[test]
    fn naca1412_is_cambered() {
        let b = Body::naca4("1412", 1.0, 0.0, 0.0, 0.0, 64);
        let (_, ymin, _, ymax) = b.bbox();
        // Camber shifts the section upward: |ymax| > |ymin|.
        assert!(ymax > -ymin, "ymax={ymax} ymin={ymin}");
    }

    #[test]
    fn channel_wall_distance() {
        let c = CaseConfig::channel(2.5e3);
        assert!((c.u_in - 0.25).abs() < 1e-12);
        assert!((c.wall_distance(3.0, 0.02) - 0.02).abs() < 1e-12);
        assert!((c.wall_distance(3.0, 0.09) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn flat_plate_only_bottom_wall() {
        let c = CaseConfig::flat_plate(2.5e5);
        assert!((c.wall_distance(5.0, 0.15) - 0.15).abs() < 1e-12);
        assert_eq!(c.top, SideBc::Symmetry);
    }

    #[test]
    fn cylinder_case_wall_distance_is_body_distance() {
        let c = CaseConfig::cylinder(1e5);
        assert!(c.is_solid(2.0, 1.0));
        assert!(!c.is_solid(0.5, 1.0));
        // Point one radius upstream of the surface.
        assert!((c.wall_distance(1.0, 1.0) - 0.5).abs() < 1e-2);
        assert!((c.u_in - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frontal_height_of_cylinder_is_diameter() {
        let b = Body::cylinder(0.0, 0.0, 0.5, 128);
        assert!((b.frontal_height() - 1.0).abs() < 1e-3);
    }
}

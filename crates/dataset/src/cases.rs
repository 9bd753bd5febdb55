//! The paper's case registry: training sweeps (§4.1) and the seven test
//! cases (§5).

use adarnet_cfd::CaseConfig;
use serde::{DeError, Deserialize, Serialize, Value};

/// Which canonical flow family a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Turbulent channel flow (wall-bounded).
    Channel,
    /// Turbulent flat-plate boundary layer (wall-bounded).
    FlatPlate,
    /// Flow around an ellipse-family solid body (external aerodynamics).
    Ellipse,
}

/// A family persists as its variant name, `"FlatPlate"`.
impl Serialize for Family {
    fn to_value(&self) -> Value {
        Value::Str(format!("{self:?}"))
    }
}

impl Deserialize for Family {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value.as_str() {
            Some("Channel") => Ok(Family::Channel),
            Some("FlatPlate") => Ok(Family::FlatPlate),
            Some("Ellipse") => Ok(Family::Ellipse),
            _ => Err(DeError::new(format!("unknown Family {value:?}"))),
        }
    }
}

/// One of the paper's seven evaluation cases (§5): interpolated and
/// extrapolated boundary conditions on trained geometries, plus three
/// unseen geometries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestCase {
    /// Channel flow at Re = 2.5e3 (interpolated).
    ChannelInt,
    /// Channel flow at Re = 1.5e4 (extrapolated).
    ChannelExt,
    /// Flat plate at Re = 2.5e5 (interpolated).
    FlatPlateInt,
    /// Flat plate at Re = 1.35e6 (extrapolated).
    FlatPlateExt,
    /// Cylinder at Re = 1e5 (unseen geometry).
    Cylinder,
    /// Symmetric NACA0012 airfoil at Re = 2.5e4 (unseen geometry).
    Naca0012,
    /// Non-symmetric NACA1412 airfoil at Re = 2.5e4 (unseen geometry).
    Naca1412,
}

impl TestCase {
    /// All seven cases, in the paper's reporting order (Table 1).
    pub const ALL: [TestCase; 7] = [
        TestCase::ChannelInt,
        TestCase::ChannelExt,
        TestCase::FlatPlateInt,
        TestCase::FlatPlateExt,
        TestCase::Cylinder,
        TestCase::Naca0012,
        TestCase::Naca1412,
    ];

    /// The flow configuration of this test case.
    pub fn config(self) -> CaseConfig {
        match self {
            TestCase::ChannelInt => CaseConfig::channel(2.5e3),
            TestCase::ChannelExt => CaseConfig::channel(1.5e4),
            TestCase::FlatPlateInt => CaseConfig::flat_plate(2.5e5),
            TestCase::FlatPlateExt => CaseConfig::flat_plate(1.35e6),
            TestCase::Cylinder => CaseConfig::cylinder(1e5),
            TestCase::Naca0012 => CaseConfig::naca0012(2.5e4),
            TestCase::Naca1412 => CaseConfig::naca1412(2.5e4),
        }
    }

    /// The short label the paper's tables use.
    pub fn label(self) -> &'static str {
        match self {
            TestCase::ChannelInt => "cf Re=2.5e3",
            TestCase::ChannelExt => "cf Re=15e3",
            TestCase::FlatPlateInt => "fp Re=2.5e5",
            TestCase::FlatPlateExt => "fp Re=1.35e6",
            TestCase::Cylinder => "cyl Re=1e5",
            TestCase::Naca0012 => "N0012 Re=2.5e4",
            TestCase::Naca1412 => "N1412 Re=2.5e4",
        }
    }

    /// Whether Figure 11 reports Cf (wall-bounded) or Cd (body) for this
    /// case.
    pub fn uses_drag(self) -> bool {
        matches!(
            self,
            TestCase::Cylinder | TestCase::Naca0012 | TestCase::Naca1412
        )
    }

    /// Family of the underlying geometry.
    pub fn family(self) -> Family {
        match self {
            TestCase::ChannelInt | TestCase::ChannelExt => Family::Channel,
            TestCase::FlatPlateInt | TestCase::FlatPlateExt => Family::FlatPlate,
            _ => Family::Ellipse,
        }
    }
}

/// Training-sweep Reynolds numbers for the channel family (§4.1): 300
/// samples in `[2e3, 2.3e3]`, 9700 in `[2.7e3, 1.35e4]`, scaled down by
/// `n_total`.
pub fn channel_training_res(n_total: usize) -> Vec<f64> {
    assert!(n_total >= 2, "need at least 2 samples");
    let n_low = ((n_total as f64 * 0.03).round() as usize).max(1);
    let n_high = n_total - n_low;
    let mut out = Vec::with_capacity(n_total);
    for k in 0..n_low {
        let t = k as f64 / (n_low.max(2) - 1).max(1) as f64;
        out.push(2e3 + t * (2.3e3 - 2e3));
    }
    for k in 0..n_high {
        let t = k as f64 / (n_high.max(2) - 1).max(1) as f64;
        out.push(2.7e3 + t * (1.35e4 - 2.7e3));
    }
    out
}

/// Training-sweep Reynolds numbers for the flat plate (§4.1): 20% in
/// `[1.35e5, 2e5]`, 80% in `[3e5, 1.1e6]`.
pub fn flat_plate_training_res(n_total: usize) -> Vec<f64> {
    assert!(n_total >= 2, "need at least 2 samples");
    let n_low = ((n_total as f64 * 0.2).round() as usize).max(1);
    let n_high = n_total - n_low;
    let mut out = Vec::with_capacity(n_total);
    for k in 0..n_low {
        let t = k as f64 / (n_low.max(2) - 1).max(1) as f64;
        out.push(1.35e5 + t * (2e5 - 1.35e5));
    }
    for k in 0..n_high {
        let t = k as f64 / (n_high.max(2) - 1).max(1) as f64;
        out.push(3e5 + t * (1.1e6 - 3e5));
    }
    out
}

/// The paper's ellipse aspect ratios (Figure 7).
pub const ELLIPSE_ASPECTS: [f64; 10] = [0.05, 0.07, 0.09, 0.1, 0.15, 0.2, 0.25, 0.35, 0.55, 0.75];

/// Ellipse-family training configurations (§4.1): every aspect ratio under
/// several angles of attack in `[-2, 6]` degrees across Re in `[5e4, 9e4]`,
/// truncated/cycled to `n_total` samples.
pub fn ellipse_training_configs(n_total: usize) -> Vec<(f64, f64, f64)> {
    let mut out = Vec::with_capacity(n_total);
    let mut k = 0usize;
    'outer: loop {
        for &aspect in &ELLIPSE_ASPECTS {
            for a_idx in 0..5 {
                let alpha = -2.0 + 8.0 * (a_idx as f64 + (k as f64 * 0.13).fract()) / 5.0;
                let re = 5e4 + 4e4 * ((k as f64 * 0.37).fract());
                out.push((aspect, alpha, re));
                k += 1;
                if out.len() >= n_total {
                    break 'outer;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_test_cases_match_paper() {
        assert_eq!(TestCase::ALL.len(), 7);
        let c = TestCase::ChannelExt.config();
        assert!((c.reynolds - 1.5e4).abs() < 1.0);
        assert_eq!(TestCase::Cylinder.label(), "cyl Re=1e5");
        assert!(TestCase::Cylinder.uses_drag());
        assert!(!TestCase::ChannelInt.uses_drag());
    }

    #[test]
    fn channel_res_within_paper_ranges_and_excludes_tests() {
        let res = channel_training_res(100);
        assert_eq!(res.len(), 100);
        for &re in &res {
            assert!((2e3..=1.35e4).contains(&re), "{re}");
            // Test Re 2.5e3 sits in the gap [2.3e3, 2.7e3].
            assert!(
                !(2.3e3 + 1.0..2.7e3 - 1.0).contains(&re),
                "{re} in test gap"
            );
        }
    }

    #[test]
    fn plate_res_within_ranges() {
        let res = flat_plate_training_res(50);
        assert_eq!(res.len(), 50);
        for &re in &res {
            assert!((1.35e5..=1.1e6).contains(&re), "{re}");
            // Test Re 2.5e5 sits in the gap (2e5, 3e5).
            assert!(!(2e5 + 1.0..3e5 - 1.0).contains(&re), "{re} in test gap");
        }
    }

    #[test]
    fn ellipse_configs_respect_figure7() {
        let cfgs = ellipse_training_configs(60);
        assert_eq!(cfgs.len(), 60);
        for &(aspect, alpha, re) in &cfgs {
            assert!(ELLIPSE_ASPECTS.contains(&aspect));
            assert!((-2.0..=6.0).contains(&alpha), "{alpha}");
            assert!((5e4..=9e4).contains(&re), "{re}");
        }
    }

    #[test]
    fn families_assigned() {
        assert_eq!(TestCase::ChannelInt.family(), Family::Channel);
        assert_eq!(TestCase::FlatPlateExt.family(), Family::FlatPlate);
        assert_eq!(TestCase::Naca1412.family(), Family::Ellipse);
    }
}

//! Convergence monitoring and serializable run reports.
//!
//! The Table 1 accounting (TTC, ITC) needs reliable residual histories;
//! this module wraps the solver's raw `(iteration, residual)` samples into
//! analyzable, exportable form.

use serde::{Deserialize, Serialize};

/// A residual history: `(iteration, normalized momentum residual)`
/// samples in ascending iteration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceHistory {
    /// The samples.
    pub samples: Vec<(u64, f64)>,
}

impl ConvergenceHistory {
    /// Wrap a solver's history.
    pub fn new(samples: Vec<(u64, f64)>) -> ConvergenceHistory {
        ConvergenceHistory { samples }
    }

    /// Iterations needed to first reach `tol`, if ever.
    pub fn iterations_to(&self, tol: f64) -> Option<u64> {
        self.samples
            .iter()
            .find(|(_, r)| *r < tol)
            .map(|(it, _)| *it)
    }

    /// Final residual (NaN if empty).
    pub fn final_residual(&self) -> f64 {
        self.samples.last().map(|(_, r)| *r).unwrap_or(f64::NAN)
    }

    /// Orders of magnitude dropped from the first to the last sample
    /// (log10 ratio; 0 for empty or non-decreasing histories).
    pub fn decades_dropped(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some((_, r0)), Some((_, rn))) if *r0 > 0.0 && *rn > 0.0 && rn < r0 => {
                (r0 / rn).log10()
            }
            _ => 0.0,
        }
    }

    /// True if the tail of the history is non-increasing on average
    /// (simple stall detector: compares the means of the last two
    /// quarters).
    pub fn is_stalled(&self) -> bool {
        let n = self.samples.len();
        if n < 8 {
            return false;
        }
        let q = n / 4;
        let mean = |s: &[(u64, f64)]| s.iter().map(|(_, r)| r).sum::<f64>() / s.len() as f64;
        let third = mean(&self.samples[n - 2 * q..n - q]);
        let fourth = mean(&self.samples[n - q..]);
        fourth >= 0.98 * third
    }

    /// Serialize to a JSON string (for EXPERIMENTS artifacts).
    #[expect(
        clippy::expect_used,
        reason = "serde_json over a plain #[derive(Serialize)] struct of floats/ints cannot error; an io::Result here would infect the whole monitor API for an impossible case"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("history serialization cannot fail")
    }
}

/// A serializable summary of one solve, pairing cost with convergence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Case name.
    pub case: String,
    /// Mesh active-cell count.
    pub active_cells: usize,
    /// Iterations performed.
    pub iterations: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Final normalized residual.
    pub final_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decaying(n: usize) -> ConvergenceHistory {
        ConvergenceHistory::new(
            (0..n)
                .map(|i| (i as u64 * 10, 1.0 / (i + 1) as f64))
                .collect(),
        )
    }

    #[test]
    fn iterations_to_tolerance() {
        let h = decaying(100);
        assert_eq!(h.iterations_to(0.05), Some(200)); // 1/21 < 0.05 at i=20
        assert_eq!(h.iterations_to(1e-9), None);
    }

    #[test]
    fn decades_dropped_measures_log_ratio() {
        let h = decaying(100);
        assert!((h.decades_dropped() - 2.0).abs() < 0.01);
        let flat = ConvergenceHistory::new(vec![(0, 1.0), (10, 1.0)]);
        assert_eq!(flat.decades_dropped(), 0.0);
    }

    #[test]
    fn stall_detection() {
        assert!(!decaying(100).is_stalled());
        let stalled = ConvergenceHistory::new(
            (0..40)
                .map(|i| (i as u64, if i < 20 { 1.0 / (i + 1) as f64 } else { 0.05 }))
                .collect(),
        );
        assert!(stalled.is_stalled());
    }

    #[test]
    fn json_roundtrip() {
        let h = decaying(5);
        let back: ConvergenceHistory = serde_json::from_str(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn solver_history_feeds_monitor() {
        use crate::{CaseConfig, CaseMesh, RansSolver, SolverConfig};
        use adarnet_amr::{PatchLayout, RefinementMap};
        let mut case = CaseConfig::channel(2.5e3);
        case.lx = 0.5;
        let mesh = CaseMesh::new(
            case,
            RefinementMap::uniform(PatchLayout::new(2, 4, 4, 4), 0, 3),
        );
        let mut s = RansSolver::new(
            mesh,
            SolverConfig {
                max_iters: 300,
                tol: 1e-12,
                ..SolverConfig::default()
            },
        );
        let _ = s.solve_to_convergence();
        let h = ConvergenceHistory::new(s.history.clone());
        assert!(!h.samples.is_empty());
        assert!(h.final_residual().is_finite());
        assert!(h.decades_dropped() >= 0.0);
    }
}

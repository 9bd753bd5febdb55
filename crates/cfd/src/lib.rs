//! # adarnet-cfd
//!
//! Physics substrate for the ADARNet reproduction: a 2-D incompressible
//! steady RANS solver with the Spalart–Allmaras one-equation turbulence
//! model (the paper's Eq. 2–4), discretized on the composite patch meshes
//! of [`adarnet_amr`].
//!
//! This crate plays the role OpenFOAM plays in the paper (§4.3):
//! * LR data generation for training,
//! * the physics solver that drives ADARNet's inference to convergence,
//! * the inner solver of the iterative feature-based AMR baseline
//!   (via the [`adarnet_amr::AmrSim`] implementation on [`RansSolver`]).
//!
//! Numerical method and OpenFOAM-substitution rationale are documented in
//! DESIGN.md §2 and §4.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod geometry;
pub mod mesh;
pub mod qoi;
pub mod sa;
pub mod solver;
pub mod state;
mod sweep;

pub use geometry::{Body, CaseConfig, SideBc, NU};
pub use mesh::CaseMesh;
pub use qoi::{drag_coefficient, lift_coefficient, skin_friction_coefficient, HOERNER_CYLINDER_CD};
pub use sa::SaConstants;
pub use solver::{RansSolver, SolverConfig};
pub use state::FlowState;

//! # adarnet-amr
//!
//! Block-structured adaptive-mesh-refinement substrate for the ADARNet
//! reproduction.
//!
//! The unit of refinement is the **patch**: the LR flow field is tiled by
//! `npy x npx` patches of `ph x pw` coarse cells each (16x16 in the paper,
//! §4.2). Every patch carries a refinement level `n in 0..=max_level`; at
//! level `n` the patch stores `(ph * 2^n) x (pw * 2^n)` cells, i.e. the
//! paper's "4^n x" area refinement with per-side scale `2^n`.
//!
//! Provided here:
//! * [`PatchLayout`] — patch-grid geometry.
//! * [`RefinementMap`] — per-patch levels, the object ADARNet's ranker
//!   produces and the AMR driver evolves.
//! * [`CompositeField`] — one scalar variable stored per-patch at each
//!   patch's own resolution, with restriction/prolongation and
//!   ghost-line exchange across arbitrary level jumps.
//! * [`indicator`] — gradient-magnitude refinement indicators
//!   (the feature-based heuristic of the baseline AMR solver).
//! * [`driver`] — the iterative solve→assess→refine loop the paper
//!   compares against (OpenFOAM `dynamicMeshRefine` stand-in).

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

pub mod driver;
pub mod field;
pub mod indicator;
pub mod layout;
pub mod map;

pub use driver::{AmrDriver, AmrOutcome, AmrSim, RoundStats, SolveStats};
pub use field::{CompositeField, Side};
pub use indicator::{gradient_indicator, mark_threshold, mark_top_fraction};
pub use layout::PatchLayout;
pub use map::RefinementMap;

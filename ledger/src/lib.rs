//! The performance ledger: four workloads, five end-to-end metrics and
//! per-crate stage attribution for the ADARNet reproduction.
//!
//! The ledger measures the repository from outside, through the
//! crates' public functions; it adds no span or counter to any of
//! them. See `README.md` for the glossary and how to run it.

pub mod gen;
pub mod probes;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

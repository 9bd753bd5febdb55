//! # check
//!
//! In-repo correctness tooling for the ADARNet reproduction, in two
//! parts (DESIGN.md §9):
//!
//! 1. **Lint pass** (`cargo run -p check --bin lint`): the repo
//!    policies no compiler lint expresses — explicit float comparisons,
//!    spelled-out float→int rounding in the numeric kernels, one lock
//!    held at a time, allocation-free kernels,
//!    justified `Ordering::Relaxed`, registered observable names.
//!    Intentional exceptions live, with reasons, in `check/allow.toml`.
//!    Panic-free and print-free library code, justified `unsafe` and
//!    overflow-free arithmetic in the wire-parse files are compiler
//!    lints: the pass only checks that every library root and both
//!    wire-parse files deny them.
//! 2. **Model checker** (`cargo run -p check --bin model-check`): a
//!    deterministic mini-loom that drives the serve primitives
//!    ([`adarnet_serve::LaneQueue`], [`adarnet_serve::QuotaTable`],
//!    [`adarnet_serve::PatchCache`], [`adarnet_serve::ModelRegistry`])
//!    and the obs tail sampler ([`adarnet_obs::TailSampler`]) through
//!    every interleaving (a
//!    depth-first walk) or seeded-random ones against sequential shadow
//!    oracles, one [`suites::Subject`] per primitive. Every schedule
//!    also fails if one of its steps acquired a `sync` guard while
//!    holding another ([`adarnet_core::sync::take_nested`]; DESIGN.md
//!    §9.3).
//!
//! Both are CI stages (`scripts/ci.sh`); both are libraries first, so
//! every rule and suite also runs as a plain `cargo test -p check`.

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

pub mod allow;
pub mod lexer;
pub mod lint;
pub mod oracle;
pub mod rules;
pub mod sched;
pub mod suites;

pub use lint::{run_lint, workspace_root, LintReport};
pub use sched::{
    explore_exhaustive, explore_random, ExploreResult, Plan, Scenario, SuiteStats, Violation,
};
pub use suites::{run_all, Budget};

//! # check
//!
//! In-repo correctness tooling for the ADARNet reproduction, in two
//! parts (DESIGN.md §9):
//!
//! 1. **Lint pass** (`cargo run -p check --bin lint`): repo-specific
//!    policies clippy cannot express — panic-free library code,
//!    explicit float comparisons, spelled-out float→int rounding in the
//!    numeric kernels, and single-lock discipline in the serving crate.
//!    Intentional exceptions live, with reasons, in `check/allow.toml`.
//! 2. **Model checker** (`cargo run -p check --bin model-check`): a
//!    deterministic mini-loom that drives the serve primitives
//!    ([`adarnet_serve::LaneQueue`], [`adarnet_serve::QuotaTable`],
//!    [`adarnet_serve::PatchCache`], [`adarnet_serve::ModelRegistry`])
//!    and the obs trace plane ([`adarnet_obs::TraceArena`],
//!    [`adarnet_obs::TailSampler`]) through bounded-exhaustive and
//!    seeded-random interleavings against sequential shadow oracles.
//!    Exhaustive exploration defaults to sleep-set DPOR ([`dpor`]) —
//!    one executed schedule per Mazurkiewicz trace — and every
//!    schedule's captured sync-event stream is replayed through a
//!    vector-clock race detector and lock-order cycle check
//!    ([`race`], [`clock`]; DESIGN.md §14).
//!
//! Both are CI stages (`scripts/ci.sh`); both are libraries first, so
//! every rule and suite also runs as a plain `cargo test -p check`.

pub mod allow;
pub mod clock;
pub mod dpor;
pub mod lexer;
pub mod lint;
pub mod oracle;
pub mod race;
pub mod rules;
pub mod sched;
pub mod suites;

pub use dpor::{explore_dpor, DporResult, Footprint};
pub use lint::{run_lint, workspace_root, LintReport};
pub use race::{analyze, Problem, ProblemKind};
pub use sched::{
    explore_exhaustive, explore_random, ExploreResult, Explorer, Mode, Scenario, SuiteStats,
    Violation,
};
pub use suites::{run_all, Budget};

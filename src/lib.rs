//! Workspace-level re-exports for the ADARNet reproduction.
//!
//! The actual functionality lives in the member crates:
//! [`adarnet_tensor`], [`adarnet_nn`], [`adarnet_amr`], [`adarnet_cfd`],
//! [`adarnet_dataset`], and [`adarnet_core`]. This crate exists to own the
//! workspace-level `examples/` and `tests/` directories and re-exports the
//! member crates for convenience.

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

pub use adarnet_amr as amr;
pub use adarnet_cfd as cfd;
pub use adarnet_core as core;
pub use adarnet_dataset as dataset;
pub use adarnet_nn as nn;
pub use adarnet_tensor as tensor;

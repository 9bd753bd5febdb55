//! # adarnet-dataset
//!
//! Workload generators for the ADARNet reproduction: the paper's three
//! canonical flow families (turbulent channel, flat plate, ellipse family;
//! §4.1), the seven evaluation cases (§5), and train/validation assembly.
//!
//! Two generation paths:
//! * [`synthetic`] — closed-form approximations of the steady RANS
//!   solutions (fast; the default on a single CPU; see DESIGN.md §2).
//! * [`solver_gen`] — full-fidelity samples through the
//!   [`adarnet_cfd`] solver (the paper's actual path; slow).

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

pub mod cases;
pub mod generator;
pub mod io;
pub mod solver_gen;
pub mod synthetic;

pub use cases::{
    channel_training_res, ellipse_training_configs, flat_plate_training_res, Family, TestCase,
    ELLIPSE_ASPECTS,
};
pub use generator::{generate, train_val_split, DatasetConfig, Sample, SampleMeta};
pub use io::{load_samples, save_samples};
pub use solver_gen::solve_lr_sample;
pub use synthetic::{point_value, synthesize};

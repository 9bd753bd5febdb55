//! # adarnet-tensor
//!
//! Tensor substrate for the ADARNet reproduction.
//!
//! This crate provides the dense array types that the rest of the workspace
//! builds on:
//!
//! * [`Tensor`] — a dynamically-shaped, row-major dense tensor used by the
//!   neural-network stack ([NCHW] layout for 4-D activations).
//! * [`Grid2`] — a 2-D scalar field with `(i, j)` = `(row, col)` indexing,
//!   used by the CFD and AMR substrates.
//!
//! Kernels that touch every element (`map`, `zip`, reductions) run as one
//! sequential pass on the calling thread; concurrency lives above this
//! crate, in the serving worker pool and in the frozen stacks of
//! `adarnet-nn`, which split a batch over idle cores (the workspace pool
//! keeps each lane's buffers apart: [`workspace::hold`]).
//!
//! [NCHW]: https://docs.nvidia.com/deeplearning/performance/dl-performance-convolutional/index.html#tensor-layout

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

pub mod element;
pub mod grid;
pub mod ops;
pub mod patch;
pub mod shape;
pub mod tensor;
pub mod workspace;

pub use element::Element;
pub use grid::Grid2;
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::AlignedBuf;

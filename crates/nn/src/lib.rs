//! # adarnet-nn
//!
//! Deep-learning substrate for the ADARNet reproduction: exactly the
//! operator set the paper's DNN needs (Conv2D, Deconv2D, MaxPool, Softmax,
//! bicubic resampling), with explicit per-layer forward/backward passes,
//! Xavier/He initialization, SGD and Adam optimizers, and a
//! finite-difference gradient checker.
//!
//! ## Why not a general autodiff tape?
//!
//! ADARNet's architecture is fixed (a 4-layer scorer and a 6-layer shared
//! decoder, Figures 4-5 of the paper). Hand-written adjoints for a fixed
//! operator set are simpler, faster, and easier to verify than a general
//! tape: every layer here is validated against central finite differences
//! in its unit tests ([`gradcheck`]).
//!
//! All activations are `f32` NCHW [`adarnet_tensor::Tensor`]s.

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

pub mod activation;
pub mod bicubic;
pub mod conv;
pub mod deconv;
pub mod device;
pub mod finite;
pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod layer;
pub mod model;
pub mod optimizer;
pub mod packed;
pub mod pool;
pub mod softmax;

pub use activation::{Activation, ActivationKind, FrozenActivation};
pub use bicubic::{bicubic_resize3, bicubic_resize3_adjoint};
pub use conv::Conv2d;
pub use deconv::ConvTranspose2d;
pub use device::Device;
pub use finite::{all_finite, debug_guard_finite};
pub use gradcheck::{check_layer_gradients, GradCheckReport};
pub use init::{he_normal, xavier_uniform, Initializer};
pub use layer::{InferLayer, Layer};
pub use model::{FrozenSequential, Sequential};
pub use optimizer::{Adam, Optimizer, Sgd};
pub use packed::{FrozenConv2d, PackedConvWeights};
pub use pool::{AvgPool2d, FrozenAvgPool2d, FrozenMaxPool2d, MaxPool2d};
pub use softmax::{FrozenSpatialSoftmax, SpatialSoftmax};

/// The floating-point type used for all network activations and weights.
pub type F = f32;

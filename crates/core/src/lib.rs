//! # adarnet-core
//!
//! ADARNet: a deep-learning framework for one-shot adaptive mesh
//! refinement via non-uniform super-resolution (Obiols-Sales et al.,
//! ICPP 2023).
//!
//! The DNN ([`network::AdarNet`]) decomposes non-uniform SR into three
//! sub-tasks (§3.1): a trainable [`scorer::Scorer`] scores each 16x16
//! patch of the LR flow field, a non-trainable [`ranker::Ranker`] bins
//! patches into target resolutions, and a shared [`decoder::decoder`]
//! reconstructs every patch at its bin's resolution. Training is
//! semi-supervised with a hybrid LR-data + PDE-residual loss
//! ([`loss`], [`pde`]); no HR labels are needed.
//!
//! The end-to-end framework ([`framework`]) couples the DNN to the
//! physics solver of [`adarnet_cfd`], which drives the one-shot prediction
//! to the same convergence tolerance as a classical AMR solver (§3.3).
//! [`surfnet`] provides the uniform-SR baseline and [`memory`] the
//! activation-memory model used for the paper's Figure 1 and Table 2.

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

pub mod checkpoint;
pub mod decoder;
pub mod engine;
pub mod framework;
pub mod loss;
pub mod memory;
pub mod network;
pub mod observe;
pub mod pde;
pub mod precision;
pub mod ranker;
pub mod scorer;
pub mod surfnet;
pub mod sync;
pub mod trainer;

pub use checkpoint::{load_file, save_file, ModelCheckpoint};
pub use decoder::{decoder, FrozenDecoder};
pub use engine::{EngineError, InferenceEngine};
pub use framework::{
    run_adarnet_case, run_amr_baseline, try_run_adarnet_case, AdarnetRunReport, AmrBaselineReport,
};
pub use loss::{hybrid_loss_and_grad, LossConfig, NormStats, PatchLoss};
pub use network::{AdarNet, AdarNetConfig, ForwardPlan, FrozenAdarNet, Prediction};
pub use precision::{Precision, PRECISION_COUNT};
pub use ranker::{Binning, Ranker, RankerError};
pub use scorer::{FrozenScorer, Scorer, ScorerOutput};
pub use surfnet::SurfNet;
pub use trainer::{PassStats, Trainer, TrainerConfig};

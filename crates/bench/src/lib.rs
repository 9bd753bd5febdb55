//! Shared support for the benchmark harnesses that regenerate the paper's
//! tables and figures.
//!
//! Every harness binary (`fig1`, `fig9`, `fig10`, `fig11`, `table1`,
//! `table2`) runs at one of two scales:
//! * `quick` (default) — reduced grids and iteration caps so the full
//!   suite completes in minutes on one CPU core;
//! * `full` — the paper-shaped configuration (64x256 LR, 64 patches of
//!   16x16, 64x max SR), selected with `ADARNET_BENCH_SCALE=full`.
//!
//! Both scales preserve the quantities the reproduction targets: who wins,
//! by roughly what factor, and where the trends cross (EXPERIMENTS.md).

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

use adarnet_amr::PatchLayout;
use adarnet_cfd::{CaseConfig, SolverConfig};
use adarnet_core::{AdarNet, AdarNetConfig, NormStats, Trainer, TrainerConfig};
use adarnet_dataset::{Family, Sample, SampleMeta, TestCase};

/// Harness scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-on-one-core configuration.
    Quick,
    /// Paper-shaped configuration.
    Full,
}

impl Scale {
    /// Read `ADARNET_BENCH_SCALE` (`quick`/`full`; default quick).
    pub fn from_env() -> Scale {
        match std::env::var("ADARNET_BENCH_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// LR field extent `(h, w)`.
    pub fn lr_extent(self) -> (usize, usize) {
        match self {
            Scale::Quick => (32, 64),
            Scale::Full => (64, 256),
        }
    }

    /// Patch extent (paper: 16).
    pub fn patch(self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Full => 16,
        }
    }

    /// Patch layout for this scale.
    pub fn layout(self) -> PatchLayout {
        let (h, w) = self.lr_extent();
        let p = self.patch();
        PatchLayout::for_field(h, w, p, p)
    }

    /// Solver configuration (iteration caps sized to the scale).
    pub fn solver_cfg(self) -> SolverConfig {
        match self {
            Scale::Quick => SolverConfig {
                max_iters: 3000,
                tol: 2.5e-3,
                ..SolverConfig::default()
            },
            Scale::Full => SolverConfig {
                max_iters: 20_000,
                tol: 2e-3,
                ..SolverConfig::default()
            },
        }
    }

    /// Training configuration `(samples per family, epochs)`.
    pub fn training(self) -> (usize, usize) {
        match self {
            Scale::Quick => (4, 5),
            Scale::Full => (24, 8),
        }
    }

    /// Learning rate for the bench training runs. The paper's 1e-4 is
    /// matched to 350 epochs over 27 000 samples; at the bench's
    /// miniature step budget we scale it up so the scorer actually leaves
    /// initialization (documented deviation, EXPERIMENTS.md).
    pub fn learning_rate(self) -> f64 {
        match self {
            Scale::Quick => 2e-3,
            Scale::Full => 5e-4,
        }
    }
}

/// The evaluation case configs, with wall-bounded domains shortened at
/// quick scale so the flow develops within the iteration budget (the
/// Reynolds number and boundary conditions are unchanged; see
/// EXPERIMENTS.md).
pub fn bench_case(tc: TestCase, scale: Scale) -> CaseConfig {
    let mut case = tc.config();
    if scale == Scale::Quick {
        match tc {
            TestCase::ChannelInt | TestCase::ChannelExt => case.lx = 1.0,
            TestCase::FlatPlateInt | TestCase::FlatPlateExt => case.lx = 2.5,
            _ => {}
        }
    }
    case
}

/// Synthesize the training set matched to a scale's LR extent.
pub fn training_set(scale: Scale) -> Vec<Sample> {
    let (h, w) = scale.lr_extent();
    let (per_family, _) = scale.training();
    let cfg = adarnet_dataset::DatasetConfig {
        per_family,
        h,
        w,
        seed: 0,
        val_fraction: 0.0,
    };
    adarnet_dataset::generate(&cfg)
}

/// Train the bench model once (shared by harnesses). The trained weights
/// are cached on disk per scale, so the six harness binaries train once
/// between them; delete the cache file (path printed on save) or set
/// `ADARNET_BENCH_RETRAIN=1` to force retraining.
#[expect(
    clippy::print_stderr,
    reason = "bench harness progress logging: model (re)training takes minutes and a silent harness looks hung; the bench lib is only ever embedded in bench bins, never in serving code"
)]
pub fn trained_model(scale: Scale) -> Trainer {
    let cache = std::env::temp_dir().join(format!(
        "adarnet_bench_model_{}.json",
        if scale == Scale::Quick {
            "quick"
        } else {
            "full"
        }
    ));
    let retrain = std::env::var("ADARNET_BENCH_RETRAIN").is_ok();
    if !retrain {
        if let Ok((model, norm)) = adarnet_core::checkpoint::load_file(&cache) {
            if model.cfg.ph == scale.patch() {
                eprintln!("[bench] loaded cached model from {}", cache.display());
                return Trainer::new(model, norm, TrainerConfig::default());
            }
        }
    }

    let train = training_set(scale);
    let (_, epochs) = scale.training();
    let norm = NormStats::from_samples(train.iter().map(|s| &s.field));
    let p = scale.patch();
    let model = AdarNet::new(AdarNetConfig {
        ph: p,
        pw: p,
        bins: 4,
        seed: 42,
        ..AdarNetConfig::default()
    });
    let mut trainer = Trainer::new(
        model,
        norm,
        TrainerConfig {
            lr: scale.learning_rate(),
            // Stronger score supervision at the miniature step budget so
            // the refinement decisions track the residual distribution.
            mu: 25.0,
            ..TrainerConfig::default()
        },
    );
    eprintln!(
        "[bench] training ADARNet: {} samples x {} epochs at lr {:.0e}...",
        train.len(),
        epochs,
        scale.learning_rate()
    );
    for e in 0..epochs {
        let st = trainer.train_epoch(&train);
        eprintln!("[bench]   epoch {e}: total {:.3e}", st.total);
    }
    if let Err(e) = adarnet_core::checkpoint::save_file(&trainer.model, &trainer.norm, &cache) {
        eprintln!("[bench] warning: could not cache model: {e}");
    } else {
        eprintln!("[bench] cached model at {}", cache.display());
    }
    trainer
}

/// A sample for a single evaluation case at a scale's LR extent.
pub fn case_lr_sample(tc: TestCase, scale: Scale) -> Sample {
    let case = bench_case(tc, scale);
    let (h, w) = scale.lr_extent();
    Sample {
        field: adarnet_dataset::synthesize(&case, h, w),
        meta: SampleMeta {
            family: Family::Channel, // metadata only; spacing fields matter
            reynolds: case.reynolds,
            name: case.name.clone(),
            lx: case.lx,
            ly: case.ly,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_valid_layouts() {
        for scale in [Scale::Quick, Scale::Full] {
            let l = scale.layout();
            assert!(l.num_patches() > 0);
            let (h, w) = scale.lr_extent();
            assert_eq!(l.coarse_h(), h);
            assert_eq!(l.coarse_w(), w);
        }
        // Full scale matches the paper's 64-patch configuration.
        assert_eq!(Scale::Full.layout().num_patches(), 64);
    }

    #[test]
    fn quick_shortens_wall_bounded_domains_only() {
        let c = bench_case(TestCase::ChannelInt, Scale::Quick);
        assert_eq!(c.lx, 1.0);
        assert_eq!(c.reynolds, 2.5e3);
        let cyl = bench_case(TestCase::Cylinder, Scale::Quick);
        assert_eq!(cyl.lx, 8.0);
        let full = bench_case(TestCase::ChannelInt, Scale::Full);
        assert_eq!(full.lx, 6.0);
    }

    #[test]
    fn case_lr_sample_matches_extent() {
        let s = case_lr_sample(TestCase::Cylinder, Scale::Quick);
        assert_eq!(s.field.dim(1), 32);
        assert_eq!(s.field.dim(2), 64);
        assert_eq!(s.meta.lx, 8.0);
    }
}

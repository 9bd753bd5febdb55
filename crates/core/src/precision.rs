//! The weight-plane precision axis, reduced to its one value.
//!
//! The model freezes, serves and goes over the wire in f32 only. The
//! names below stay because the read-only benchmark package imports
//! them (`ledger/src/workloads/mod.rs`: `PRECISION_COUNT` and
//! `ServeConfig::default_precision.index()`; `ledger/src/workloads/net.rs`:
//! `InferenceEngine::precision().name()` and the `precision` field of
//! the wire messages). EXPERIMENTS.md records the reduced-precision plane that used
//! to be the second value.

/// Weight-plane storage precision of a frozen model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// f32 weight panels.
    #[default]
    F32,
}

/// Number of [`Precision`] variants.
pub const PRECISION_COUNT: usize = 1;

impl Precision {
    /// Canonical precision name.
    pub fn name(self) -> &'static str {
        "f32"
    }

    /// Stable small index; the wire codec's precision byte is
    /// `index() + 1`.
    pub fn index(self) -> usize {
        0
    }

    /// Inverse of [`Precision::index`].
    pub fn from_index(idx: usize) -> Option<Precision> {
        (idx == 0).then_some(Precision::F32)
    }
}

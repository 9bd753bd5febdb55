//! The ranker: a non-trainable module that bins patches by score (§3.1).
//!
//! Scores arrive from the scorer's softmax as a probability distribution
//! over patches. The paper describes binning as "splitting the 0-1 range of
//! values of the scores into `b` bins uniformly"; since a softmax over `N`
//! patches concentrates mass near `1/N`, we first min-max rescale the
//! scores across the sample so the full `[0, 1]` range is used (otherwise
//! every patch would land in bin 0 — a detail the paper leaves implicit).
//! The highest bin maps to the highest target resolution.

use adarnet_tensor::Tensor;

/// Why a score slice cannot be binned.
///
/// Scores come straight out of the scorer's softmax, so both cases are
/// upstream defects (an empty patch grid, or weights that produced
/// NaN/inf activations) — but a serving system must surface them as
/// recoverable errors rather than tearing down a worker thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankerError {
    /// The score slice was empty: there are no patches to bin.
    EmptyScores,
    /// A score was NaN or infinite; `index` is the offending patch.
    NonFiniteScore {
        /// Patch index (row-major over the patch grid).
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for RankerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankerError::EmptyScores => write!(f, "no scores to bin"),
            RankerError::NonFiniteScore { index, value } => {
                write!(f, "non-finite score {value} at patch {index}")
            }
        }
    }
}

impl std::error::Error for RankerError {}

/// Binning configuration: `b` bins over the rescaled score range.
///
/// ```
/// use adarnet_core::Ranker;
///
/// let ranker = Ranker::paper(); // b = 4 bins, levels 0..=3
/// let binning = ranker.try_bin_scores(&[0.01, 0.2, 0.6, 0.99])?;
/// assert_eq!(binning.bin_of_patch, vec![0, 0, 2, 3]);
/// # Ok::<(), adarnet_core::RankerError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ranker {
    /// Number of bins (4 in the paper, so refinement factors 4^0..4^3).
    pub bins: u8,
}

/// The ranker's output: a per-patch bin index (= refinement level) plus the
/// patch IDs gathered per bin, ready for per-bin decoder batches.
#[derive(Debug, Clone, PartialEq)]
pub struct Binning {
    /// Per-patch bin index, row-major over the patch grid.
    pub bin_of_patch: Vec<u8>,
    /// Patch indices per bin (`groups[b]` lists the patches in bin `b`).
    pub groups: Vec<Vec<usize>>,
}

impl Ranker {
    /// Create a ranker with `bins >= 1` bins.
    pub fn new(bins: u8) -> Ranker {
        assert!(bins >= 1, "need at least one bin");
        Ranker { bins }
    }

    /// The paper's configuration: b = 4 (§4.2).
    pub fn paper() -> Ranker {
        Ranker::new(4)
    }

    /// Bin a flat slice of patch scores.
    ///
    /// Returns [`RankerError::EmptyScores`] for an empty slice and
    /// [`RankerError::NonFiniteScore`] if any score is NaN or infinite
    /// (a NaN would otherwise poison the min-max rescale and silently
    /// land every patch in bin 0).
    pub fn try_bin_scores(&self, scores: &[f64]) -> Result<Binning, RankerError> {
        if scores.is_empty() {
            return Err(RankerError::EmptyScores);
        }
        if let Some((index, &value)) = scores.iter().enumerate().find(|(_, s)| !s.is_finite()) {
            return Err(RankerError::NonFiniteScore { index, value });
        }
        let lo = scores.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1e-300);
        let b = self.bins as usize;
        let mut bin_of_patch = Vec::with_capacity(scores.len());
        let mut groups = vec![Vec::new(); b];
        for (i, &s) in scores.iter().enumerate() {
            let t = if hi > lo { (s - lo) / span } else { 0.0 };
            // t = 1.0 must land in the last bin, not overflow it.
            let bin = ((t * b as f64) as usize).min(b - 1) as u8;
            bin_of_patch.push(bin);
            groups[bin as usize].push(i);
        }
        Ok(Binning {
            bin_of_patch,
            groups,
        })
    }

    /// Bin a `(1, NPy, NPx)` or `(NPy, NPx)` score tensor from the scorer.
    pub fn bin_tensor(&self, scores: &Tensor<f32>) -> Binning {
        match self.try_bin_tensor(scores) {
            Ok(b) => b,
            #[expect(
                clippy::panic,
                reason = "the infallible adapter over a typed error: its callers feed fields they synthesized themselves, so an error here is a bug to stop on, not a condition to handle; serving goes through the try_ variant"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Ranker::bin_tensor`].
    pub fn try_bin_tensor(&self, scores: &Tensor<f32>) -> Result<Binning, RankerError> {
        let flat: Vec<f64> = scores.as_slice().iter().map(|&v| v as f64).collect();
        self.try_bin_scores(&flat)
    }
}

impl Binning {
    /// Refinement level (== bin index) of patch `idx`.
    pub fn level_of(&self, idx: usize) -> u8 {
        self.bin_of_patch[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_invariant_every_patch_in_exactly_one_bin() {
        let r = Ranker::paper();
        let scores: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.37).sin().abs() / 64.0)
            .collect();
        let b = r.try_bin_scores(&scores).unwrap();
        let total: usize = b.groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 64);
        for (bin, group) in b.groups.iter().enumerate() {
            for &i in group {
                assert_eq!(b.bin_of_patch[i] as usize, bin);
            }
        }
    }

    #[test]
    fn monotone_score_to_level() {
        let r = Ranker::paper();
        let scores = vec![0.0, 0.1, 0.5, 0.9, 1.0];
        let b = r.try_bin_scores(&scores).unwrap();
        for w in b.bin_of_patch.windows(2) {
            assert!(w[0] <= w[1], "{:?}", b.bin_of_patch);
        }
        assert_eq!(b.bin_of_patch[0], 0);
        assert_eq!(*b.bin_of_patch.last().unwrap(), 3);
    }

    #[test]
    fn min_max_rescaling_spreads_softmax_scores() {
        // Softmax-like scores all near 1/N still spread across bins.
        let r = Ranker::paper();
        let scores = vec![0.0155, 0.0156, 0.0158, 0.0160];
        let b = r.try_bin_scores(&scores).unwrap();
        assert_eq!(b.bin_of_patch[0], 0);
        assert_eq!(b.bin_of_patch[3], 3);
    }

    #[test]
    fn constant_scores_all_lowest_bin() {
        let r = Ranker::paper();
        let b = r.try_bin_scores(&[0.25; 16]).unwrap();
        assert!(b.bin_of_patch.iter().all(|&v| v == 0));
        assert_eq!(b.groups[0].len(), 16);
    }

    #[test]
    fn two_bins_split_at_half() {
        let r = Ranker::new(2);
        let b = r.try_bin_scores(&[0.0, 0.49, 0.51, 1.0]).unwrap();
        assert_eq!(b.bin_of_patch, vec![0, 0, 1, 1]);
    }

    #[test]
    fn try_bin_scores_empty_is_typed_error() {
        let r = Ranker::paper();
        assert_eq!(r.try_bin_scores(&[]), Err(RankerError::EmptyScores));
    }

    #[test]
    fn try_bin_scores_rejects_non_finite() {
        let r = Ranker::paper();
        match r.try_bin_scores(&[0.1, f64::NAN, 0.3]) {
            Err(RankerError::NonFiniteScore { index: 1, value }) => assert!(value.is_nan()),
            other => panic!("expected NonFiniteScore at 1, got {other:?}"),
        }
        assert!(matches!(
            r.try_bin_scores(&[f64::INFINITY]),
            Err(RankerError::NonFiniteScore { index: 0, .. })
        ));
    }
}

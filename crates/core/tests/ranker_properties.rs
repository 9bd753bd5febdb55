//! Property-based invariants of the ranker and the plan→predict
//! pipeline (the contracts the serving path and the model checker's
//! oracles lean on):
//!
//! * **monotone binning** — a higher score never lands in a lower bin;
//! * **exactly-one-bin partition** — `groups` partitions the patch
//!   indices: every patch appears in exactly the group of its assigned
//!   bin, and nowhere else;
//! * **patch-count conservation** — `predict` returns exactly one
//!   decoded patch per planned patch, with the same binning `plan`
//!   produced (no patch lost or duplicated across per-bin batches).

use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_core::Ranker;
use adarnet_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn arb_scores() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e3f64..1.0e3, 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// scores[i] <= scores[j] implies bin[i] <= bin[j].
    #[test]
    fn binning_is_monotone_in_score(scores in arb_scores(), bins in 1u8..6) {
        let binning = match Ranker::new(bins).try_bin_scores(&scores) {
            Ok(b) => b,
            Err(e) => return Err(TestCaseError::fail(format!("finite scores rejected: {e}"))),
        };
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i] <= scores[j] {
                    prop_assert!(
                        binning.bin_of_patch[i] <= binning.bin_of_patch[j],
                        "score {} (bin {}) <= score {} (bin {}) but bins inverted",
                        scores[i], binning.bin_of_patch[i],
                        scores[j], binning.bin_of_patch[j]
                    );
                }
            }
        }
    }

    /// `groups` is an exact partition of the patch indices by bin.
    #[test]
    fn groups_partition_patches_exactly_once(scores in arb_scores(), bins in 1u8..6) {
        let binning = match Ranker::new(bins).try_bin_scores(&scores) {
            Ok(b) => b,
            Err(e) => return Err(TestCaseError::fail(format!("finite scores rejected: {e}"))),
        };
        prop_assert_eq!(binning.groups.len(), bins as usize);
        prop_assert_eq!(binning.bin_of_patch.len(), scores.len());
        let mut seen = vec![0usize; scores.len()];
        for (b, group) in binning.groups.iter().enumerate() {
            for &idx in group {
                prop_assert!(idx < scores.len(), "group {} holds bogus index {}", b, idx);
                seen[idx] += 1;
                prop_assert_eq!(
                    binning.bin_of_patch[idx] as usize, b,
                    "patch {} in group {} but assigned bin {}",
                    idx, b, binning.bin_of_patch[idx]
                );
            }
        }
        prop_assert!(
            seen.iter().all(|&c| c == 1),
            "each patch must appear in exactly one group: {:?}", seen
        );
        let total: usize = binning.groups.iter().map(Vec::len).sum();
        prop_assert_eq!(total, scores.len());
    }
}

fn arb_field(c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor<f32>> {
    let n = c * h * w;
    prop::collection::vec(-1.5f32..1.5, n)
        .prop_map(move |v| Tensor::from_vec(Shape::d3(c, h, w), v))
}

proptest! {
    // predict runs the full scorer + decoder; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// plan → predict conserves the patch count and the binning.
    #[test]
    fn predict_conserves_patch_count(x in arb_field(4, 16, 16), seed in 0u64..100) {
        let cfg = AdarNetConfig { ph: 8, pw: 8, seed, ..AdarNetConfig::default() };
        let mut planner = AdarNet::new(cfg);
        let plan = match planner.try_plan(&x) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("plan failed on finite input: {e}"))),
        };
        let pred = match AdarNet::new(cfg).freeze().try_predict(&x) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("predict failed on finite input: {e}"))),
        };
        let n = plan.layout.num_patches();
        prop_assert_eq!(n, 4, "16x16 field over 8x8 patches");
        prop_assert_eq!(pred.patches.len(), n, "one decoded patch per planned patch");
        prop_assert_eq!(
            &pred.binning.bin_of_patch, &plan.binning.bin_of_patch,
            "predict must decode the exact binning plan computed"
        );
        let grouped: usize = pred.binning.groups.iter().map(Vec::len).sum();
        prop_assert_eq!(grouped, n, "per-bin groups must conserve the patch count");
    }
}

//! Property-based tests over the cross-crate pipeline invariants.

use adarnet_amr::{PatchLayout, RefinementMap};
use adarnet_cfd::{CaseConfig, CaseMesh, FlowState};
use adarnet_core::{AdarNet, AdarNetConfig, NormStats, Ranker};
use adarnet_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn arb_field(h: usize, w: usize) -> impl Strategy<Value = Tensor<f32>> {
    prop::collection::vec(-1.0f32..1.0, 4 * h * w)
        .prop_map(move |v| Tensor::from_vec(Shape::d3(4, h, w), v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every input, however random, yields a prediction that tiles the
    /// domain: one patch per layout slot, each at its bin's resolution.
    #[test]
    fn prediction_always_tiles_domain(field in arb_field(16, 16)) {
        let model = AdarNet::new(AdarNetConfig {
            ph: 8, pw: 8, seed: 1, ..AdarNetConfig::default()
        });
        let pred = model.freeze().try_predict(&field).unwrap();
        prop_assert_eq!(pred.patches.len(), 4);
        for (idx, p) in pred.patches.iter().enumerate() {
            let level = pred.binning.level_of(idx);
            prop_assert_eq!(p.dim(1), 8usize << level);
            prop_assert!(p.all_finite());
        }
        // Active cells bounded between all-LR and all-HR.
        let cells = pred.active_cells();
        prop_assert!((256..=256 * 64).contains(&cells));
    }

    /// Ranker partition: every score vector maps each patch to exactly one
    /// bin, and levels never exceed bins - 1.
    #[test]
    fn ranker_partition_invariants(scores in prop::collection::vec(0.0f64..1.0, 1..64), bins in 1u8..6) {
        let ranker = Ranker::new(bins);
        let b = ranker.try_bin_scores(&scores).unwrap();
        let total: usize = b.groups.iter().map(|g| g.len()).sum();
        prop_assert_eq!(total, scores.len());
        for &lvl in &b.bin_of_patch {
            prop_assert!(lvl < bins);
        }
        // Monotone: a strictly larger score never gets a lower bin.
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i] > scores[j] {
                    prop_assert!(b.bin_of_patch[i] >= b.bin_of_patch[j]);
                }
            }
        }
    }

    /// NormStats normalize/denormalize roundtrips within f32 tolerance for
    /// arbitrary fields.
    #[test]
    fn normalization_roundtrip(field in arb_field(8, 8)) {
        let norm = NormStats::from_samples([&field]);
        let back = norm.denormalize(&norm.normalize(&field));
        prop_assert!(back.mse(&field) < 1e-9);
    }

    /// FlowState tensor roundtrip preserves the field on the same mesh for
    /// arbitrary refinement maps.
    #[test]
    fn flow_state_tensor_roundtrip(levels in prop::collection::vec(0u8..3, 4)) {
        let layout = PatchLayout::new(2, 2, 4, 4);
        let map = RefinementMap::from_levels(layout, levels, 3);
        let mesh = CaseMesh::new(CaseConfig::channel(2.5e3), map.clone());
        let state = FlowState::freestream(&mesh);
        // Uniformize at the finest level present, rebuild, compare means.
        let max_level = map.levels().iter().copied().max().unwrap_or(0);
        let t = state.to_tensor(max_level);
        let back = FlowState::from_tensor(&map, &t, max_level);
        prop_assert!((state.u.mean() - back.u.mean()).abs() < 1e-4);
    }

    /// Refinement maps from predictions always stay within the bin budget
    /// and reproduce active-cell accounting.
    #[test]
    fn refinement_map_accounting(field in arb_field(16, 16)) {
        let model = AdarNet::new(AdarNetConfig {
            ph: 8, pw: 8, seed: 2, ..AdarNetConfig::default()
        });
        let pred = model.freeze().try_predict(&field).unwrap();
        let map = pred.refinement_map(3);
        prop_assert_eq!(map.active_cells(), pred.active_cells());
        prop_assert!(map.active_fraction() <= 1.0);
    }
}

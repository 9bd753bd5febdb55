//! The sweep contract, pinned bit for bit: every patch of a step reads
//! only the old state, so the updated `u/v/p/nt` bits and the residual
//! do not depend on how the patches are split over lanes or visited.
//!
//! The hashes below were recorded from the single-threaded patch loop
//! the solver had before its sweep ran on lanes. They cover the seven
//! Table 1 configurations at the ledger's LR extent (24x48, 8x8
//! patches, the ledger's shortened `lx` values), each on the uniform
//! level-0 map and on one fixed mixed-level map with level jumps up to
//! three. A kernel change that moves a single bit fails here.

use adarnet_amr::{PatchLayout, RefinementMap};
use adarnet_cfd::{CaseConfig, CaseMesh, FlowState, RansSolver, SolverConfig};

/// Steps per configuration: two residual samples at the default
/// `check_every`, and short enough for an unoptimized test build.
const STEPS: u64 = 20;

/// `(state hash, residual hash)` after [`STEPS`] steps, per case, on the
/// uniform map and then on the mixed map.
const GOLDEN: [(&str, [(u64, u64); 2]); 7] = [
    (
        "channel 2.5e3",
        [
            (0x3533584be2dadf03, 0x566bdb2d0ceaa20a),
            (0x710c40bab5144284, 0x5d08eff5b83542cf),
        ],
    ),
    (
        "channel 1.5e4",
        [
            (0x3a205423c21dd7c3, 0xb6b80be4068d50d7),
            (0x7a7611d5674a88fe, 0x61f9d3201ef89e80),
        ],
    ),
    (
        "flat plate 2.5e5",
        [
            (0x1d5b382897158f9c, 0xc8db751c06829447),
            (0x6412a063bc1f0bf3, 0x653c3d7ac37cba31),
        ],
    ),
    (
        "flat plate 1.35e6",
        [
            (0x2cf1420ca6ebff5d, 0xae8a21c61c2291f1),
            (0x32e9356b7ed4a0ce, 0x5bc426850513c944),
        ],
    ),
    (
        "cylinder 1e5",
        [
            (0xc505d463d146759a, 0xc06e9187cd7adc54),
            (0xccb9598a3f0e7ef3, 0xab44a5fdf8c69a3a),
        ],
    ),
    (
        "naca0012 2.5e4",
        [
            (0xdbf6a1ad36ed9319, 0xcc8e46a8b06d7c6c),
            (0xbe70e6df67e2fd09, 0x61ff825744ce49b6),
        ],
    ),
    (
        "naca1412 2.5e4",
        [
            (0x3f8d1b37dbbd6870, 0xbaa3cf695c34023a),
            (0x62968a8ed6a5cda3, 0xb8308d88515fee6f),
        ],
    ),
];

/// The Table 1 cases in [`GOLDEN`] order, with the ledger's `lx`.
fn cases() -> [CaseConfig; 7] {
    let with_lx = |mut case: CaseConfig, lx: f64| {
        case.lx = lx;
        case
    };
    [
        with_lx(CaseConfig::channel(2.5e3), 1.0),
        with_lx(CaseConfig::channel(1.5e4), 1.0),
        with_lx(CaseConfig::flat_plate(2.5e5), 2.5),
        with_lx(CaseConfig::flat_plate(1.35e6), 2.5),
        CaseConfig::cylinder(1e5),
        CaseConfig::naca0012(2.5e4),
        CaseConfig::naca1412(2.5e4),
    ]
}

fn layout() -> PatchLayout {
    PatchLayout::for_field(24, 48, 8, 8)
}

/// Both maps, uniform first. The mixed map puts a level-3 patch on the
/// bodies (patch (1, 1)) beside level-0 neighbours, and refined patches
/// on the bottom wall, the top boundary and the outlet corner.
fn maps() -> [RefinementMap; 2] {
    #[rustfmt::skip]
    let levels = vec![
        1, 2, 0, 0, 0, 0,
        0, 3, 1, 0, 0, 0,
        0, 0, 0, 0, 2, 1,
    ];
    [
        RefinementMap::uniform(layout(), 0, 3),
        RefinementMap::from_levels(layout(), levels, 3),
    ]
}

fn cfg() -> SolverConfig {
    SolverConfig {
        max_iters: STEPS,
        tol: 0.0,
        ..SolverConfig::default()
    }
}

/// Freestream plus a fixed integer-pattern perturbation, so that ghost
/// lines across level jumps carry non-constant values from step one.
fn solver(mesh: &CaseMesh) -> RansSolver {
    let mut state = FlowState::freestream(mesh);
    let u_in = mesh.case.u_in;
    for idx in 0..layout().num_patches() {
        for (field, scale) in [
            (&mut state.u, 0.02 * u_in),
            (&mut state.v, 0.02 * u_in),
            (&mut state.p, 1e-3 * u_in * u_in),
        ] {
            for (k, x) in field
                .patch_at_mut(idx)
                .as_mut_slice()
                .iter_mut()
                .enumerate()
            {
                *x += scale * ((k * 7 + idx * 13) % 11) as f64 / 11.0;
            }
        }
    }
    state.enforce_solid(mesh);
    RansSolver::with_state(mesh.clone(), state, cfg())
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn state_hash(s: &FlowState) -> u64 {
    let n = s.map().layout().num_patches();
    fnv([&s.u, &s.v, &s.p, &s.nt].into_iter().flat_map(|f| {
        (0..n).flat_map(move |idx| f.patch_at(idx).as_slice().iter().map(|x| x.to_bits()))
    }))
}

/// Every configuration's name, mesh and golden pair.
fn configs() -> impl Iterator<Item = (String, CaseMesh, (u64, u64))> {
    GOLDEN
        .into_iter()
        .zip(cases())
        .flat_map(|((name, golden), case)| {
            ["uniform", "mixed"]
                .into_iter()
                .zip(maps())
                .zip(golden)
                .map(move |((kind, map), pair)| {
                    let mesh = CaseMesh::new(case.clone(), map);
                    (format!("{name} {kind}"), mesh, pair)
                })
        })
}

#[test]
fn steps_match_the_golden_bits() {
    let mut moved = Vec::new();
    for (name, mesh, golden) in configs() {
        let mut s = solver(&mesh);
        let res: Vec<f64> = (0..STEPS).map(|_| s.step()).collect();
        assert!(s.state.all_finite(), "{name}: non-finite state");
        let got = (state_hash(&s.state), fnv(res.iter().map(|r| r.to_bits())));
        if got != golden {
            moved.push(format!("{name}: ({:#018x}, {:#018x})", got.0, got.1));
        }
    }
    assert!(moved.is_empty(), "bits moved:\n{}", moved.join("\n"));
}

#[test]
fn solve_to_convergence_matches_stepping_bit_for_bit() {
    for (name, mesh, golden) in configs() {
        let mut stepped = solver(&mesh);
        let res: Vec<f64> = (0..STEPS).map(|_| stepped.step()).collect();
        let mut solved = solver(&mesh);
        let stats = solved.solve_to_convergence();
        assert_eq!(stats.iterations, STEPS, "{name}");
        assert_eq!(state_hash(&solved.state), golden.0, "{name}: state bits");
        assert_eq!(
            stats.final_residual.to_bits(),
            res[res.len() - 1].to_bits(),
            "{name}: final residual"
        );
        let every = cfg().check_every;
        let expect: Vec<(u64, u64)> = (every..=STEPS)
            .step_by(every as usize)
            .map(|it| (it, res[it as usize - 1].to_bits()))
            .collect();
        let got: Vec<(u64, u64)> = solved
            .history
            .iter()
            .map(|&(it, r)| (it, r.to_bits()))
            .collect();
        assert_eq!(got, expect, "{name}: history");
    }
}

#[test]
#[should_panic(expected = "share a refinement map")]
fn map_mismatch_panics_on_the_caller() {
    let [uniform, mixed] = maps();
    let case = CaseConfig::cylinder(1e5);
    let mut s = solver(&CaseMesh::new(case.clone(), uniform));
    s.state = FlowState::freestream(&CaseMesh::new(case, mixed));
    s.solve_to_convergence();
}

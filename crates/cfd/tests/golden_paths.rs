//! The sweep paths `golden_solver.rs` leaves unpinned, bit for bit.
//!
//! Every configuration there runs the default upwind scheme
//! (`conv_blend = 0`) from a state with `nt >= 0` everywhere. This file
//! pins the two other paths of the cell kernel: the hybrid scheme's
//! central terms (`conv_blend = 0.5`, on a channel and on the cylinder)
//! and the `nt <= 0` branches of the eddy viscosity and the SA source,
//! reached from a start state with negative, `-0.0` and `+0.0` values of
//! `nt` in fluid cells (a warm start from the decoder is not clamped, so
//! a solve can begin there). Each configuration runs on the uniform
//! level-0 map and on the mixed map of `golden_solver.rs`.
//!
//! The hashes were recorded from the per-cell sweep kernel, before it
//! was rewritten as row passes.

use adarnet_amr::{PatchLayout, RefinementMap};
use adarnet_cfd::{CaseConfig, CaseMesh, FlowState, RansSolver, SolverConfig};

/// Steps per configuration, as in `golden_solver.rs`.
const STEPS: u64 = 20;

/// What a configuration changes from the default start and scheme.
#[derive(Clone, Copy)]
enum Path {
    /// `conv_blend = 0.5`.
    Blend,
    /// Fluid `nt` cycles through negative, `-0.0`, `+0.0` and positive
    /// values.
    NonPositiveNt,
}

/// `(state hash, residual hash)` after [`STEPS`] steps, on the uniform
/// map and then on the mixed map.
type Hashes = [(u64, u64); 2];

/// Every configuration's name, path and [`Hashes`].
const GOLDEN: [(&str, Path, Hashes); 4] = [
    (
        "channel 2.5e3 blend 0.5",
        Path::Blend,
        [
            (0x7e4e9d09e9f956bd, 0x5a33b40679f275bd),
            (0x8e5d2d40337d2605, 0xb3ce8da26386ff9d),
        ],
    ),
    (
        "cylinder 1e5 blend 0.5",
        Path::Blend,
        [
            (0x3a267d37eaabcbd3, 0xa8c255cdcdd37cf9),
            (0x5077899b372b6bc2, 0x52f2ae6937d9d960),
        ],
    ),
    (
        "cylinder 1e5 nt <= 0",
        Path::NonPositiveNt,
        [
            (0x6cc8a865df08ecee, 0xf2ec37dd9311af07),
            (0x43fe2283d42cc5e5, 0x5fef22261e754f28),
        ],
    ),
    (
        "flat plate 2.5e5 nt <= 0",
        Path::NonPositiveNt,
        [
            (0x4616b642162afea6, 0x93b14f2676ec5078),
            (0x097765ba887b30d7, 0xb592e8ef5e381470),
        ],
    ),
];

/// The cases in [`GOLDEN`] order, with the ledger's `lx`.
fn cases() -> [CaseConfig; 4] {
    let with_lx = |mut case: CaseConfig, lx: f64| {
        case.lx = lx;
        case
    };
    [
        with_lx(CaseConfig::channel(2.5e3), 1.0),
        CaseConfig::cylinder(1e5),
        CaseConfig::cylinder(1e5),
        with_lx(CaseConfig::flat_plate(2.5e5), 2.5),
    ]
}

fn layout() -> PatchLayout {
    PatchLayout::for_field(24, 48, 8, 8)
}

/// The uniform level-0 map and the mixed map of `golden_solver.rs`.
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

fn cfg(path: Path) -> SolverConfig {
    SolverConfig {
        max_iters: STEPS,
        tol: 0.0,
        conv_blend: match path {
            Path::Blend => 0.5,
            Path::NonPositiveNt => 0.0,
        },
        ..SolverConfig::default()
    }
}

/// The perturbed freestream of `golden_solver.rs`; on the `nt <= 0`
/// path, fluid `nt` also takes a fixed pattern of
/// `{-1, -0.0, +0.0, 1, 2} x nt_inflow`.
fn solver(mesh: &CaseMesh, path: Path) -> RansSolver {
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
        if let Path::NonPositiveNt = path {
            let nt_in = mesh.case.nu_tilde_inflow();
            for (k, x) in state
                .nt
                .patch_at_mut(idx)
                .as_mut_slice()
                .iter_mut()
                .enumerate()
            {
                *x = [-nt_in, -0.0, 0.0, nt_in, 2.0 * nt_in][(k * 3 + idx) % 5];
            }
        }
    }
    state.enforce_solid(mesh);
    RansSolver::with_state(mesh.clone(), state, cfg(path))
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

#[test]
fn unpinned_paths_match_the_golden_bits() {
    let mut moved = Vec::new();
    for ((name, path, golden), case) in GOLDEN.into_iter().zip(cases()) {
        for ((kind, map), golden) in ["uniform", "mixed"].into_iter().zip(maps()).zip(golden) {
            let mesh = CaseMesh::new(case.clone(), map);
            let mut stepped = solver(&mesh, path);
            let res: Vec<f64> = (0..STEPS).map(|_| stepped.step()).collect();
            assert!(
                stepped.state.all_finite(),
                "{name} {kind}: non-finite state"
            );
            let got = (
                state_hash(&stepped.state),
                fnv(res.iter().map(|r| r.to_bits())),
            );
            if got != golden {
                moved.push(format!("{name} {kind}: ({:#018x}, {:#018x})", got.0, got.1));
            }
            // The lanes of a solve give the stepped bits.
            let mut solved = solver(&mesh, path);
            let stats = solved.solve_to_convergence();
            assert_eq!(stats.iterations, STEPS, "{name} {kind}");
            assert_eq!(
                state_hash(&solved.state),
                got.0,
                "{name} {kind}: solved state"
            );
        }
    }
    assert!(moved.is_empty(), "bits moved:\n{}", moved.join("\n"));
}

//! Accuracy gate for the bf16 weight plane: a reduced-precision engine
//! may serve only if its drift vs the f32 engine stays inside
//! [`AccuracyBudget::serving_bf16`] — per-bin decoder error bounded and
//! refinement decisions identical — and its resident weight bytes come
//! in at <= 0.55x the f32 plane (the byte cut is the whole point).

use adarnet_core::loss::NormStats;
use adarnet_core::{compare_engines, AccuracyBudget, AdarNet, AdarNetConfig, InferenceEngine};
use adarnet_nn::{Device, Precision};
use adarnet_tensor::{Shape, Tensor};

fn field(h: usize, w: usize, phase: f32) -> Tensor<f32> {
    Tensor::from_vec(
        Shape::d3(4, h, w),
        (0..4 * h * w)
            .map(|i| ((i as f32) * 0.017 + phase).sin())
            .collect(),
    )
}

fn engine_pair(seed: u64, device: Device) -> (InferenceEngine, InferenceEngine) {
    let cfg = AdarNetConfig {
        ph: 8,
        pw: 8,
        seed,
        ..AdarNetConfig::default()
    };
    let mut model = AdarNet::new(cfg);
    model.set_device(device);
    let f32_engine = InferenceEngine::new_with(model, NormStats::identity(), Precision::F32);
    // Same checkpoint hydrates both planes: narrowing happens at freeze.
    let bf16_engine =
        InferenceEngine::from_checkpoint_with(&f32_engine.checkpoint(), Precision::Bf16)
            .expect("checkpoint restores");
    (f32_engine, bf16_engine)
}

fn eval_fields() -> Vec<Tensor<f32>> {
    (0..6).map(|i| field(16, 32, i as f32 * 0.9)).collect()
}

#[test]
fn bf16_engine_halves_resident_weight_bytes() {
    let (f, q) = engine_pair(42, Device::active());
    assert_eq!(f.precision(), Precision::F32);
    assert_eq!(q.precision(), Precision::Bf16);
    let ratio = q.weight_bytes() as f64 / f.weight_bytes() as f64;
    assert!(
        ratio <= 0.55,
        "bf16 engine must cut resident weight bytes to <= 0.55x f32, got {:.3} ({} / {} B)",
        ratio,
        q.weight_bytes(),
        f.weight_bytes()
    );
}

#[test]
fn bf16_decoder_error_stays_inside_serving_budget_on_both_backends() {
    let fields = eval_fields();
    let budget = AccuracyBudget::serving_bf16();
    for device in [Device::CpuScalar, Device::CpuSimd] {
        let (f, q) = engine_pair(42, device);
        let report = compare_engines(&f, &q, &fields).expect("inference succeeds");
        assert_eq!(report.patches, 6 * 8, "2x4 patch grid per field");
        assert!(
            !report.per_bin.is_empty(),
            "at least one bin decoded patches"
        );
        let violations = report.violations(&budget);
        assert!(
            violations.is_empty(),
            "{}: budget violated: {violations:?} (report: {report:?})",
            device.name()
        );
        // bf16 is genuinely quantized — drift must be non-zero, or the
        // comparison is vacuous (e.g. both engines secretly f32).
        let worst = report
            .per_bin
            .iter()
            .map(|b| b.max_abs)
            .fold(0f32, f32::max);
        assert!(worst > 0.0, "bf16 engine produced bitwise-f32 output");
    }
}

#[test]
fn bf16_refinement_decisions_match_f32_end_to_end() {
    // The mesh itself must not change: every patch lands in the same
    // bin as the f32 reference on every backend.
    let fields = eval_fields();
    for device in [Device::CpuScalar, Device::CpuSimd] {
        let (f, q) = engine_pair(7, device);
        let report = compare_engines(&f, &q, &fields).expect("inference succeeds");
        assert_eq!(
            report.decision_mismatches,
            0,
            "{}: {} patches changed refinement bin under bf16",
            device.name(),
            report.decision_mismatches
        );
    }
}

#[test]
fn budget_gate_can_fail() {
    // Seeded regression proving the gate has teeth: an absurdly tight
    // budget must reject the bf16 engine (its drift is real), so a
    // kernel bug that inflates drift cannot silently pass.
    let (f, q) = engine_pair(42, Device::active());
    let report = compare_engines(&f, &q, &eval_fields()).expect("inference succeeds");
    let impossible = AccuracyBudget {
        max_abs: 0.0,
        mean_abs: 0.0,
        identical_decisions: true,
    };
    assert!(
        !report.passes(&impossible),
        "zero-tolerance budget must fail against genuine bf16 drift"
    );
    assert!(!report.violations(&impossible).is_empty());
}

//! What the ledger's generators and schedulers guarantee.

use std::cell::Cell;

use adarnet_dataset::TestCase;
use adarnet_ledger::gen::{
    channel_spans, class_sequence, drive_schedule, fixed_rate_schedule, perturb, scaled_case,
    seeded_cases, seeded_pool, whole_passes, Class, Clock, Rng, MIX_BLOCK, NOISE,
};
use adarnet_tensor::Tensor;

/// Little-endian bytes of a field, as they go on the wire.
fn field_bytes(field: &Tensor<f32>) -> Vec<u8> {
    field
        .as_slice()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

#[test]
fn a_seed_gives_identical_input_bytes() {
    let (a, spans_a) = seeded_pool(3, 16, 32, 7);
    let (b, spans_b) = seeded_pool(3, 16, 32, 7);
    let (c, _) = seeded_pool(3, 16, 32, 8);
    assert_eq!(spans_a, spans_b);
    for k in 0..3 {
        assert_eq!(field_bytes(&a[k]), field_bytes(&b[k]));
        assert_ne!(field_bytes(&a[k]), field_bytes(&c[k]));
    }
    // Per-send noise is a function of (seed, stream) alone.
    let x = perturb(&a[0], &spans_a, &mut Rng::new(7, 1000));
    let y = perturb(&a[0], &spans_a, &mut Rng::new(7, 1000));
    let z = perturb(&a[0], &spans_a, &mut Rng::new(7, 1001));
    assert_eq!(field_bytes(&x), field_bytes(&y));
    assert_ne!(field_bytes(&x), field_bytes(&z));
}

#[test]
fn noise_stays_within_its_share_of_each_channel_scale() {
    let (pool, _) = seeded_pool(3, 16, 32, 1);
    let spans = channel_spans(&pool);
    let noisy = perturb(&pool[1], &spans, &mut Rng::new(1, 5));
    let plane = 16 * 32;
    for (c, &scale) in spans.iter().enumerate() {
        for i in 0..plane {
            let d = (noisy.as_slice()[c * plane + i] - pool[1].as_slice()[c * plane + i]).abs();
            // One part in a hundred for the sum's own rounding.
            assert!(d <= NOISE * scale * 1.01, "channel {c}: {d}");
        }
        let moved = (0..plane)
            .filter(|i| noisy.as_slice()[c * plane + i] != pool[1].as_slice()[c * plane + i])
            .count();
        assert!(
            moved * 10 > plane * 9,
            "channel {c}: noise reaches {moved} of {plane} values"
        );
    }
}

#[test]
fn the_open_mix_has_exactly_one_cold_request_per_block() {
    let seq = class_sequence(3, 640);
    assert_eq!(seq, class_sequence(3, 640));
    assert_ne!(seq, class_sequence(4, 640));
    for block in seq.chunks(MIX_BLOCK) {
        assert_eq!(block.iter().filter(|&&c| c == Class::Cold).count(), 1);
    }
    assert_eq!(class_sequence(3, 25).len(), 25);
}

#[test]
fn seeded_cases_are_the_seven_cases_reordered() {
    let cases = seeded_cases(11);
    assert_eq!(cases.len(), 7);
    for tc in TestCase::ALL {
        let (_, got) = cases
            .iter()
            .find(|(t, _)| *t == tc)
            .expect("every case once");
        assert_eq!(*got, scaled_case(tc), "{}", tc.label());
        assert_eq!(got.reynolds, tc.config().reynolds, "{}", tc.label());
    }
    let again = seeded_cases(11);
    for (a, b) in cases.iter().zip(&again) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
    let orders: std::collections::BTreeSet<Vec<String>> = (0..8)
        .map(|s| {
            seeded_cases(s)
                .iter()
                .map(|(t, _)| t.label().to_string())
                .collect()
        })
        .collect();
    assert!(orders.len() > 1, "the seed moves the order");
}

#[test]
fn runs_are_whole_passes_until_the_budget_is_spent() {
    let mut seen = Vec::new();
    let passes = whole_passes(16.0, |pass| {
        seen.push(pass);
        3.5
    });
    assert_eq!(passes, 5, "4 passes are 14 s, short of 16");
    assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    assert_eq!(whole_passes(0.0, |_| 1.0), 1, "never less than one pass");
    assert_eq!(
        whole_passes(7.0, |_| 3.5),
        2,
        "a budget met exactly ends the run"
    );
}

/// A clock that only moves when something sleeps on it or stalls it.
struct FakeClock(Cell<f64>);

impl Clock for FakeClock {
    fn now_s(&self) -> f64 {
        self.0.get()
    }

    fn sleep_until(&self, t_s: f64) {
        self.0.set(self.0.get().max(t_s));
    }
}

#[test]
fn latency_is_counted_from_the_due_time_when_the_generator_stalls() {
    let due = fixed_rate_schedule(10.0, 10);
    assert!((due[3] - 0.3).abs() < 1e-12);
    let clock = FakeClock(Cell::new(0.0));
    let mut sent = Vec::new();
    let dispatches = drive_schedule(&clock, &due, |k| {
        sent.push(k);
        if k == 3 {
            // The send of request 3 blocks for half a second.
            clock.0.set(clock.0.get() + 0.5);
        }
    });
    assert_eq!(
        sent,
        (0..10).collect::<Vec<_>>(),
        "nothing skipped, nothing reordered"
    );
    for d in &dispatches {
        assert!(d.sent_s >= d.due_s, "never early");
    }
    assert_eq!(dispatches[3].lateness_s(), 0.0);
    assert!((dispatches[4].lateness_s() - 0.4).abs() < 1e-9);
    assert!((dispatches[7].lateness_s() - 0.1).abs() < 1e-9);
    assert_eq!(dispatches[8].lateness_s(), 0.0);
    // A 5 ms reply to request 4 still took 405 ms from its user's view.
    assert!((dispatches[4].latency_from_due_s(0.005) - 0.405).abs() < 1e-9);
}

//! What the ledger's estimators mean.

use adarnet_ledger::spec::Workload;
use adarnet_ledger::stats::{
    median, percentile, quartiles, samples_beyond, spread, summarize_latency, tail_percentile_for,
    windowed_median_rate, Completion, MIN_BEYOND,
};

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(percentile(&v, 90.0), 9.0);
    assert_eq!(percentile(&v, 91.0), 10.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&v, 100.0), 10.0);
}

#[test]
fn tail_is_the_highest_step_with_ten_samples_beyond() {
    for (n, want) in [
        (14, 50.0),
        (35, 70.0),
        (91, 80.0),
        (104, 90.0),
        (640, 98.0),
        (1040, 99.0),
    ] {
        let p = tail_percentile_for(n);
        assert_eq!(p, want, "{n} samples");
        assert!(samples_beyond(n, p) >= MIN_BEYOND || p == 50.0);
    }
    // One more step up the ladder would leave fewer than ten.
    assert!(samples_beyond(35, 80.0) < MIN_BEYOND);
    assert!(samples_beyond(640, 99.0) < MIN_BEYOND);
    assert_eq!(samples_beyond(1000, 99.0), 10);
}

#[test]
fn every_workload_uses_the_percentile_the_rule_gives_its_planned_count() {
    for w in Workload::ALL {
        if w == Workload::ServeOpenMix {
            // The open loop keeps three times the samples beyond: one
            // stall of the host delays several requests at once.
            assert_eq!(w.tail_percentile(), 95.0);
            assert!(samples_beyond(w.planned_ops(), 95.0) >= 3 * MIN_BEYOND);
            assert!(samples_beyond(w.planned_ops(), 98.0) < 3 * MIN_BEYOND);
            continue;
        }
        assert_eq!(
            w.tail_percentile(),
            tail_percentile_for(w.planned_ops()),
            "{}",
            w.name()
        );
    }
}

#[test]
fn latency_summary_reports_the_samples_beyond_the_tail() {
    let v: Vec<f64> = (1..=35).rev().map(f64::from).collect();
    let s = summarize_latency(&v, 70.0);
    assert_eq!(s.samples, 35);
    assert_eq!(s.p50_ms, 18.0);
    assert_eq!(s.tail_ms, 25.0);
    assert_eq!(s.beyond_tail, 10);
}

fn steady(ops: usize, rate: f64, from_s: f64) -> Vec<Completion> {
    (1..=ops)
        .map(|k| Completion {
            at_s: from_s + k as f64 / rate,
            good: true,
        })
        .collect()
}

#[test]
fn windowed_median_ignores_a_stolen_window() {
    // Five windows of 10 ops at 10 ops/s, the third stalled for 4 s.
    let mut done = steady(20, 10.0, 0.0);
    done.extend(steady(10, 10.0, 2.0 + 4.0));
    done.extend(steady(20, 10.0, 7.0));
    let rate = windowed_median_rate(&done, 10);
    assert!((rate - 10.0).abs() < 1e-9, "{rate}");
    let naive = done.len() as f64 / done.last().unwrap().at_s;
    assert!(naive < 6.0, "ops / wall feels the stall: {naive}");
}

#[test]
fn windowed_median_counts_only_good_ops_and_drops_a_partial_window() {
    let mut done = steady(25, 10.0, 0.0);
    for c in done.iter_mut().take(10).step_by(2) {
        c.good = false;
    }
    // Windows: 5 good of 10 in 1 s, 10 of 10 in 1 s; the last 5 ops dropped.
    assert!((windowed_median_rate(&done, 10) - 7.5).abs() < 1e-9);
    // Completions need not arrive sorted.
    done.reverse();
    assert!((windowed_median_rate(&done, 10) - 7.5).abs() < 1e-9);
    // Fewer ops than one window: all of them over their span.
    assert!((windowed_median_rate(&steady(4, 2.0, 0.0), 10) - 2.0).abs() < 1e-9);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    let w = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
    assert_eq!(quartiles(&w), (1.75, 5.25));
    assert_eq!(median(&w), 3.5);
    assert!((spread(&w) - 1.0).abs() < 1e-12);
}

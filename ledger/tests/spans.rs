//! Self time and layer attribution of the span recorder.

use adarnet_ledger::spans::{Layer, Recorder};

fn spin(us: u64) {
    let started = std::time::Instant::now();
    while started.elapsed().as_micros() < u128::from(us) {
        std::hint::spin_loop();
    }
}

#[test]
fn self_time_is_duration_minus_children_and_sums_to_the_root() {
    let mut rec = Recorder::on();
    rec.op("op", |rec| {
        rec.scope("outer", Layer::Core, |rec| {
            spin(200);
            rec.span("inner", Layer::Nn, || spin(300));
        });
        rec.span("codec", Layer::Net, || spin(100));
    });
    let spans = rec.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans.iter().all(|s| s.op == 1));
    let own = rec.self_times_ns();
    assert_eq!(own[1], spans[1].duration_ns() - spans[2].duration_ns());
    assert_eq!(
        own.iter().sum::<u64>(),
        rec.root_ns(),
        "no gap, no double count"
    );
    let by_layer = rec.self_by_layer();
    assert!(by_layer[&Layer::Nn] >= 300_000);
    assert!(by_layer[&Layer::Core] >= 200_000 && by_layer[&Layer::Core] < by_layer[&Layer::Nn]);
    assert_eq!(by_layer.values().sum::<u64>(), rec.root_ns());
}

#[test]
fn counts_attach_to_the_open_span_and_an_off_recorder_records_nothing() {
    let mut rec = Recorder::on();
    rec.scope("decode", Layer::Nn, |rec| {
        rec.count("bin", 3);
        rec.count("patches", 5);
    });
    rec.scope("decode", Layer::Nn, |rec| {
        rec.count("bin", 0);
        rec.count("patches", 7);
    });
    assert_eq!(rec.count_sum("decode", "patches"), 12);
    let bin3: Vec<_> = rec.spans_where("decode", "bin", 3).collect();
    assert_eq!(bin3.len(), 1);
    assert_eq!(bin3[0].count("patches"), Some(5));
    assert!(rec.to_json().contains("\"patches\":7"));

    let mut off = Recorder::off();
    assert_eq!(off.op("op", |rec| rec.span("x", Layer::Cfd, || 41) + 1), 42);
    assert!(off.spans().is_empty());
}

#[test]
fn raw_spans_take_their_parent_and_times_as_given() {
    let mut rec = Recorder::on();
    let root = rec.record_raw("open_op", Layer::Ledger, 1.0, 1.030, None, 9);
    rec.record_raw("wait", Layer::Serve, 1.0, 1.020, Some(root), 9);
    let own = rec.self_times_ns();
    assert_eq!(own[0], 10_000_000);
    assert_eq!(rec.self_by_layer()[&Layer::Serve], 20_000_000);
}

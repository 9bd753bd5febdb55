//! `BENCHMARK.json` is the ledger's tables, and the tables keep the
//! driver's limits.

use std::collections::BTreeSet;

use adarnet_ledger::spec::{benchmark_json, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};

fn name_ok(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_at_the_root_is_what_the_tables_print() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with `adarnet-ledger --benchmark-json > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
    serde_json::parse_value(&on_disk).expect("valid JSON");
}

#[test]
fn names_units_and_bounds_keep_the_drivers_limits() {
    let mut names = BTreeSet::new();
    for w in Workload::ALL {
        assert!(name_ok(w.name()) && names.insert(w.name()), "{}", w.name());
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}: {}",
            w.name(),
            w.why().len()
        );
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    for m in &END_TO_END {
        assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}", m.unit);
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert!((1..=128).contains(&PER_LAYER.len()));
    for m in PER_LAYER {
        assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
        assert!(!m.moves.is_empty());
    }
    assert!((1..=60).contains(&RUN_SECONDS));
}

//! The on-disk formats the serving stack and the harnesses share.
//!
//! The checkpoint and dataset files keep their exact bytes, and a
//! checkpoint that does not fit its own config is an `Err` on every
//! load path — decode and [`checkpoint::restore`], the engine, a file
//! through `load_file`, and `ModelRegistry::load` — never a panic.

use std::path::PathBuf;

use adarnet_core::checkpoint::{self, ModelCheckpoint};
use adarnet_core::engine::InferenceEngine;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_dataset::{generate, save_samples, DatasetConfig};
use adarnet_serve::ModelRegistry;
use serde::{Deserialize, Serialize, Value};

/// FNV-1a, 64-bit: a dependency-free fingerprint of a file's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adarnet_formats_{}_{name}", std::process::id()))
}

fn tiny_model() -> AdarNet {
    AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 9,
        ..AdarNetConfig::default()
    })
}

#[test]
fn checkpoint_file_bytes_are_pinned() {
    let norm = NormStats {
        lo: [0.0, -1.0, -2.0, 0.0],
        hi: [1.0, 1.0, 2.0, 1e-3],
    };
    let path = scratch_path("pinned_ckpt.json");
    checkpoint::save_file(&tiny_model(), &norm, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (1_278_140, 0xc352_cdcc_1927_8d91)
    );
}

#[test]
fn dataset_file_bytes_are_pinned() {
    let samples = generate(&DatasetConfig {
        per_family: 2,
        h: 8,
        w: 16,
        seed: 0,
        val_fraction: 0.0,
    });
    let path = scratch_path("pinned_ds.json");
    save_samples(&samples, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (55_705, 0x0719_27f0_7934_7bd2)
    );
}

/// The value under `key` of a JSON object.
fn entry<'v>(value: &'v mut Value, key: &str) -> &'v mut Value {
    match value {
        Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
        other => panic!("expected an object, found {}", other.kind()),
    }
}

/// The items of a JSON array.
fn items(value: &mut Value) -> &mut Vec<Value> {
    match value {
        Value::Array(items) => items,
        other => panic!("expected an array, found {}", other.kind()),
    }
}

/// One malformed checkpoint: a name, the edit that breaks a valid one,
/// and a fragment of the error every load path must return.
type Row = (&'static str, fn(&mut Value), &'static str);

const MALFORMED: [Row; 5] = [
    (
        "decoder tensor dropped",
        |ckpt| {
            items(entry(ckpt, "decoder")).pop();
        },
        "decoder has 11 tensors, its config needs 12",
    ),
    (
        "zero bins",
        |ckpt| *entry(ckpt, "bins") = Value::Int(0),
        "bins >= 1",
    ),
    (
        // A model this wide would need ~288 TB of weights: the check must
        // come before the allocation.
        "in_channels far wider than the saved scorer",
        |ckpt| *entry(ckpt, "in_channels") = Value::Int(1 << 40),
        "in_channels 1099511627776 exceeds its 3929 scorer weights",
    ),
    (
        "data shorter than shape",
        |ckpt| {
            let last = items(entry(ckpt, "decoder")).last_mut().unwrap();
            *entry(last, "shape") = Value::Array(vec![Value::Int(2), Value::Int(2)]);
            *entry(last, "data") = Value::Array(vec![Value::Float(1.0)]);
        },
        "Tensor data has 1 elements, shape [2x2] needs 4",
    ),
    (
        "transposed shape",
        |ckpt| {
            let first = &mut items(entry(ckpt, "decoder"))[0];
            items(entry(first, "shape")).swap(0, 1);
        },
        "decoder tensor 0 has shape [7x8x3x3], its config needs [8x7x3x3]",
    ),
];

#[test]
fn a_checkpoint_that_does_not_fit_its_config_is_an_error_on_every_load_path() {
    let valid = checkpoint::snapshot(&tiny_model(), &NormStats::identity()).to_value();
    for (name, edit, want) in MALFORMED {
        let mut broken = valid.clone();
        edit(&mut broken);

        let restored = ModelCheckpoint::from_value(&broken)
            .map_err(|e| e.to_string())
            .and_then(|ckpt| {
                assert!(InferenceEngine::from_checkpoint(&ckpt).is_err(), "{name}");
                checkpoint::restore(&ckpt).map(drop)
            });
        let err = restored.expect_err(name);
        assert!(err.contains(want), "{name}: restore said {err:?}");

        let path = scratch_path("malformed_ckpt.json");
        std::fs::write(&path, serde_json::to_string(&broken).unwrap()).unwrap();
        let err = checkpoint::load_file(&path).map(drop).expect_err(name);
        assert!(
            err.to_string().contains(want),
            "{name}: load_file said {err}"
        );
        let registry = ModelRegistry::new();
        let err = registry.load("m", &path).expect_err(name);
        assert!(
            err.to_string().contains(want),
            "{name}: registry said {err}"
        );
        assert!(registry.names().is_empty(), "{name}: registered anyway");
        std::fs::remove_file(&path).ok();
    }
}

//! On-disk dataset caching.
//!
//! Solver-generated samples are expensive (minutes each at paper scale);
//! caching lets one generation run feed every harness. The format is a
//! single JSON file holding fields and metadata.

use std::fs;
use std::io;
use std::path::Path;

use adarnet_tensor::Tensor;
use serde::{field, object, DeError, Deserialize, Serialize, Value};

use crate::generator::{Sample, SampleMeta};

/// Serializable dataset container.
pub struct DatasetFile {
    /// Format version.
    pub version: u32,
    /// Sample fields.
    pub fields: Vec<Tensor<f32>>,
    /// Sample metadata, aligned with `fields`.
    pub metas: Vec<SampleMeta>,
}

impl Serialize for DatasetFile {
    fn to_value(&self) -> Value {
        object([
            ("version", self.version.to_value()),
            ("fields", self.fields.to_value()),
            ("metas", self.metas.to_value()),
        ])
    }
}

impl Deserialize for DatasetFile {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        const OWNER: &str = "DatasetFile";
        Ok(DatasetFile {
            version: field(value, "version", OWNER)?,
            fields: field(value, "fields", OWNER)?,
            metas: field(value, "metas", OWNER)?,
        })
    }
}

/// Current dataset file version.
pub const DATASET_VERSION: u32 = 1;

/// Save samples to a JSON file.
pub fn save_samples(samples: &[Sample], path: impl AsRef<Path>) -> io::Result<()> {
    let file = DatasetFile {
        version: DATASET_VERSION,
        fields: samples.iter().map(|s| s.field.clone()).collect(),
        metas: samples.iter().map(|s| s.meta.clone()).collect(),
    };
    fs::write(path, serde_json::to_string(&file)?)
}

/// Load samples from a JSON file written by [`save_samples`].
pub fn load_samples(path: impl AsRef<Path>) -> io::Result<Vec<Sample>> {
    let file: DatasetFile = serde_json::from_str(&fs::read_to_string(path)?)?;
    if file.version != DATASET_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("dataset version {} unsupported", file.version),
        ));
    }
    if file.fields.len() != file.metas.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "fields/metas length mismatch",
        ));
    }
    Ok(file
        .fields
        .into_iter()
        .zip(file.metas)
        .map(|(field, meta)| Sample { field, meta })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, DatasetConfig};

    #[test]
    fn roundtrip_preserves_samples() {
        let cfg = DatasetConfig {
            per_family: 2,
            h: 8,
            w: 16,
            seed: 0,
            val_fraction: 0.0,
        };
        let samples = generate(&cfg);
        let dir = std::env::temp_dir().join("adarnet_ds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        save_samples(&samples, &path).unwrap();
        let back = load_samples(&path).unwrap();
        assert_eq!(back.len(), samples.len());
        for (a, b) in back.iter().zip(&samples) {
            assert_eq!(a.field, b.field);
            assert_eq!(a.meta.name, b.meta.name);
            assert_eq!(a.meta.lx, b.meta.lx);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_version() {
        let dir = std::env::temp_dir().join("adarnet_ds_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, r#"{"version": 99, "fields": [], "metas": []}"#).unwrap();
        assert!(load_samples(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

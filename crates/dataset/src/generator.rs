//! Dataset assembly: sweep the training ranges, synthesize (or solve) each
//! configuration, and split into train/validation.

use adarnet_cfd::CaseConfig;
use adarnet_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{field, object, DeError, Deserialize, Serialize, Value};

use crate::cases::{
    channel_training_res, ellipse_training_configs, flat_plate_training_res, Family,
};
use crate::synthetic::synthesize;

/// Metadata carried with each sample.
#[derive(Debug, Clone)]
pub struct SampleMeta {
    /// Flow family.
    pub family: Family,
    /// Reynolds number.
    pub reynolds: f64,
    /// Case name.
    pub name: String,
    /// Physical domain length (m), for PDE-loss cell spacing.
    pub lx: f64,
    /// Physical domain height (m).
    pub ly: f64,
}

impl Serialize for SampleMeta {
    fn to_value(&self) -> Value {
        object([
            ("family", self.family.to_value()),
            ("reynolds", self.reynolds.to_value()),
            ("name", self.name.to_value()),
            ("lx", self.lx.to_value()),
            ("ly", self.ly.to_value()),
        ])
    }
}

impl Deserialize for SampleMeta {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        const OWNER: &str = "SampleMeta";
        Ok(SampleMeta {
            family: field(value, "family", OWNER)?,
            reynolds: field(value, "reynolds", OWNER)?,
            name: field(value, "name", OWNER)?,
            lx: field(value, "lx", OWNER)?,
            ly: field(value, "ly", OWNER)?,
        })
    }
}

/// One LR training sample: a 4-channel `(4, H, W)` field plus metadata.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The LR flow field (channels U, V, p, nu_tilde).
    pub field: Tensor<f32>,
    /// Provenance.
    pub meta: SampleMeta,
}

/// Dataset generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Samples per canonical flow family (the paper uses 10 000 each).
    pub per_family: usize,
    /// LR field height (64 in the paper).
    pub h: usize,
    /// LR field width (256 in the paper).
    pub w: usize,
    /// Shuffle seed for the train/val split.
    pub seed: u64,
    /// Fraction reserved for validation (0.1 in the paper: 3000 / 30000).
    pub val_fraction: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            per_family: 32,
            h: 64,
            w: 256,
            seed: 0,
            val_fraction: 0.1,
        }
    }
}

/// Generate the full three-family dataset from the synthetic models.
pub fn generate(cfg: &DatasetConfig) -> Vec<Sample> {
    assert!(cfg.per_family >= 2, "need at least 2 samples per family");
    let mut configs: Vec<(Family, CaseConfig)> = Vec::with_capacity(3 * cfg.per_family);
    for re in channel_training_res(cfg.per_family) {
        configs.push((Family::Channel, CaseConfig::channel(re)));
    }
    for re in flat_plate_training_res(cfg.per_family) {
        configs.push((Family::FlatPlate, CaseConfig::flat_plate(re)));
    }
    for (aspect, alpha, re) in ellipse_training_configs(cfg.per_family) {
        configs.push((Family::Ellipse, CaseConfig::ellipse(aspect, alpha, re)));
    }
    configs
        .into_iter()
        .map(|(family, case)| Sample {
            field: synthesize(&case, cfg.h, cfg.w),
            meta: SampleMeta {
                family,
                reynolds: case.reynolds,
                name: case.name.clone(),
                lx: case.lx,
                ly: case.ly,
            },
        })
        .collect()
}

/// Shuffle and split samples into `(train, validation)` per
/// `cfg.val_fraction`.
pub fn train_val_split(
    mut samples: Vec<Sample>,
    cfg: &DatasetConfig,
) -> (Vec<Sample>, Vec<Sample>) {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    samples.shuffle(&mut rng);
    let n_val = ((samples.len() as f64 * cfg.val_fraction).round() as usize).min(samples.len());
    let train = samples.split_off(n_val);
    (train, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DatasetConfig {
        DatasetConfig {
            per_family: 6,
            h: 16,
            w: 64,
            seed: 7,
            val_fraction: 0.25,
        }
    }

    #[test]
    fn generates_three_families() {
        let ds = generate(&small_cfg());
        assert_eq!(ds.len(), 18);
        for fam in [Family::Channel, Family::FlatPlate, Family::Ellipse] {
            assert_eq!(ds.iter().filter(|s| s.meta.family == fam).count(), 6);
        }
        for s in &ds {
            assert_eq!(s.field.dim(0), 4);
            assert_eq!(s.field.dim(1), 16);
            assert_eq!(s.field.dim(2), 64);
            assert!(s.field.all_finite());
        }
    }

    #[test]
    fn split_fractions_and_determinism() {
        let cfg = small_cfg();
        let (train, val) = train_val_split(generate(&cfg), &cfg);
        assert_eq!(val.len(), 5); // round(18 * 0.25) = 5 (banker-free round)
        assert_eq!(train.len(), 13);
        let (train2, _) = train_val_split(generate(&cfg), &cfg);
        assert_eq!(train[0].meta.name, train2[0].meta.name);
    }

    #[test]
    fn samples_vary_with_reynolds() {
        let ds = generate(&small_cfg());
        let channels: Vec<_> = ds
            .iter()
            .filter(|s| s.meta.family == Family::Channel)
            .collect();
        let a = &channels[0].field;
        let b = &channels.last().unwrap().field;
        assert!(a.mse(b) > 0.0, "different Re must give different fields");
    }
}

//! Whole-model checkpointing: serialize a trained ADARNet (scorer +
//! decoder weights), its configuration, and the dataset normalization to
//! JSON, so a single training run can be shared across harnesses,
//! examples, and deployments.

use std::fs;
use std::io;
use std::path::Path;

use adarnet_tensor::Tensor;
use serde::{field, object, DeError, Deserialize, Serialize, Value};

use crate::loss::NormStats;
use crate::network::{AdarNet, AdarNetConfig};

/// On-disk representation of a trained model.
#[derive(Clone)]
pub struct ModelCheckpoint {
    /// Format version (bumped on layout changes).
    pub version: u32,
    /// Input channels.
    pub in_channels: usize,
    /// Patch height.
    pub ph: usize,
    /// Patch width.
    pub pw: usize,
    /// Bin count.
    pub bins: u8,
    /// Dataset normalization.
    pub norm: NormStats,
    /// Scorer weights in [`crate::scorer::Scorer::snapshot`] order.
    pub scorer: Vec<Tensor<f32>>,
    /// Decoder weights in [`adarnet_nn::Sequential::snapshot`] order.
    pub decoder: Vec<Tensor<f32>>,
}

impl Serialize for ModelCheckpoint {
    fn to_value(&self) -> Value {
        object([
            ("version", self.version.to_value()),
            ("in_channels", self.in_channels.to_value()),
            ("ph", self.ph.to_value()),
            ("pw", self.pw.to_value()),
            ("bins", self.bins.to_value()),
            ("norm", self.norm.to_value()),
            ("scorer", self.scorer.to_value()),
            ("decoder", self.decoder.to_value()),
        ])
    }
}

/// Decoding checks the file's structure; whether the tensors fit the
/// config is [`restore`]'s check.
impl Deserialize for ModelCheckpoint {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        const OWNER: &str = "ModelCheckpoint";
        Ok(ModelCheckpoint {
            version: field(value, "version", OWNER)?,
            in_channels: field(value, "in_channels", OWNER)?,
            ph: field(value, "ph", OWNER)?,
            pw: field(value, "pw", OWNER)?,
            bins: field(value, "bins", OWNER)?,
            norm: field(value, "norm", OWNER)?,
            scorer: field(value, "scorer", OWNER)?,
            decoder: field(value, "decoder", OWNER)?,
        })
    }
}

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Snapshot a model and its normalization.
pub fn snapshot(model: &AdarNet, norm: &NormStats) -> ModelCheckpoint {
    ModelCheckpoint {
        version: CHECKPOINT_VERSION,
        in_channels: model.cfg.in_channels,
        ph: model.cfg.ph,
        pw: model.cfg.pw,
        bins: model.cfg.bins,
        norm: *norm,
        scorer: model.scorer.snapshot(),
        decoder: model.decoder.snapshot(),
    }
}

/// Rebuild a model (and its normalization) from a checkpoint.
///
/// A checkpoint that does not fit its own config — a zero extent or bin
/// count, more input channels than its scorer has weights, or a tensor
/// count or shape other than a fresh model's — is an `Err`, checked
/// before any weight is copied.
pub fn restore(ckpt: &ModelCheckpoint) -> Result<(AdarNet, NormStats), String> {
    if ckpt.version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint version {} unsupported (expected {})",
            ckpt.version, CHECKPOINT_VERSION
        ));
    }
    let cfg = AdarNetConfig {
        in_channels: ckpt.in_channels,
        ph: ckpt.ph,
        pw: ckpt.pw,
        bins: ckpt.bins,
        seed: 0,
    };
    if [cfg.in_channels, cfg.ph, cfg.pw, cfg.bins as usize].contains(&0) {
        return Err(format!(
            "checkpoint config needs in_channels, ph, pw and bins >= 1, has {}, {}, {}, {}",
            cfg.in_channels, cfg.ph, cfg.pw, cfg.bins
        ));
    }
    // Every input channel has scorer weights of its own, so a config
    // wider than the saved scorer cannot fit it: refuse before building
    // (and allocating) a model that wide.
    let saved_scorer: usize = ckpt.scorer.iter().map(Tensor::len).sum();
    if cfg.in_channels > saved_scorer {
        return Err(format!(
            "checkpoint in_channels {} exceeds its {saved_scorer} scorer weights",
            cfg.in_channels
        ));
    }
    let mut model = AdarNet::new(cfg);
    fits("scorer", &model.scorer.snapshot(), &ckpt.scorer)?;
    fits("decoder", &model.decoder.snapshot(), &ckpt.decoder)?;
    model.scorer.restore(&ckpt.scorer);
    model.decoder.restore(&ckpt.decoder);
    Ok((model, ckpt.norm))
}

/// `Err` unless `saved` has `fresh`'s tensor count and shapes.
fn fits(part: &str, fresh: &[Tensor<f32>], saved: &[Tensor<f32>]) -> Result<(), String> {
    if saved.len() != fresh.len() {
        return Err(format!(
            "checkpoint {part} has {} tensors, its config needs {}",
            saved.len(),
            fresh.len()
        ));
    }
    for (i, (f, s)) in fresh.iter().zip(saved).enumerate() {
        if !f.shape().same(s.shape()) {
            return Err(format!(
                "checkpoint {part} tensor {i} has shape {:?}, its config needs {:?}",
                s.shape(),
                f.shape()
            ));
        }
    }
    Ok(())
}

/// Save a model to a JSON file.
pub fn save_file(model: &AdarNet, norm: &NormStats, path: impl AsRef<Path>) -> io::Result<()> {
    let ckpt = snapshot(model, norm);
    let json = serde_json::to_string(&ckpt)?;
    fs::write(path, json)
}

/// Load a model from a JSON file.
pub fn load_file(path: impl AsRef<Path>) -> io::Result<(AdarNet, NormStats)> {
    let json = fs::read_to_string(path)?;
    let ckpt: ModelCheckpoint = serde_json::from_str(&json)?;
    restore(&ckpt).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_tensor::Shape;

    fn sample_input() -> Tensor<f32> {
        Tensor::from_vec(
            Shape::d3(4, 16, 16),
            (0..4 * 256).map(|i| ((i as f32) * 0.021).sin()).collect(),
        )
    }

    fn tiny_model(seed: u64) -> AdarNet {
        AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            seed,
            ..AdarNetConfig::default()
        })
    }

    #[test]
    fn snapshot_restore_preserves_predictions() {
        let a = tiny_model(5);
        let norm = NormStats::identity();
        let x = sample_input();
        let pred_a = a.freeze().try_predict(&x).unwrap();
        let ckpt = snapshot(&a, &norm);
        let (b, norm_b) = restore(&ckpt).unwrap();
        assert_eq!(norm_b, norm);
        let pred_b = b.freeze().try_predict(&x).unwrap();
        assert_eq!(pred_a.binning.bin_of_patch, pred_b.binning.bin_of_patch);
        for (pa, pb) in pred_a.patches.iter().zip(&pred_b.patches) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn file_roundtrip() {
        let a = tiny_model(9);
        let norm = NormStats {
            lo: [0.0, -1.0, -2.0, 0.0],
            hi: [1.0, 1.0, 2.0, 1e-3],
        };
        let dir = std::env::temp_dir().join("adarnet_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        save_file(&a, &norm, &path).unwrap();
        let (b, norm_b) = load_file(&path).unwrap();
        assert_eq!(norm_b, norm);
        let x = sample_input();
        // Fresh model with a different seed must differ; restored must not.
        let c = tiny_model(9);
        let predict = |m: &AdarNet| m.freeze().try_predict(&x).unwrap();
        assert_eq!(predict(&b).patches[0], predict(&c).patches[0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_rejected() {
        let a = tiny_model(1);
        let mut ckpt = snapshot(&a, &NormStats::identity());
        ckpt.version = 999;
        assert!(restore(&ckpt).is_err());
    }
}

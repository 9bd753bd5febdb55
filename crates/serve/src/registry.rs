//! Model registry: named checkpoints with hot-swappable active model.
//!
//! The registry holds [`ModelCheckpoint`]s by name (loaded via
//! `adarnet_core::checkpoint`) and publishes one of them as *active*.
//! Activation swaps an `Arc` behind an `RwLock` and bumps a generation
//! counter; worker threads compare the counter against their engine's
//! generation at each batch boundary and re-fetch the shared engine
//! lazily, so a swap never blocks in-flight inference and requires no
//! thread restarts.
//!
//! [`ModelRegistry::shared_with`] is the serving entry point: one frozen
//! [`InferenceEngine`] per generation, built lazily outside any lock
//! and cached behind an `Arc`. Every worker thread clones the same
//! `Arc` — one resident weight copy regardless of worker count — and a
//! hot swap is just the cache moving to a newer generation; threads
//! mid-batch keep their old `Arc` alive until they finish.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use adarnet_core::checkpoint::{self, ModelCheckpoint};
use adarnet_core::engine::{EngineError, InferenceEngine};
use adarnet_core::sync;
use adarnet_core::Precision;

/// Registry errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// No checkpoint registered under this name.
    UnknownModel(String),
    /// The checkpoint failed to restore into a model.
    Restore(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            RegistryError::Restore(msg) => write!(f, "restore failed: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The currently active checkpoint and its generation number.
#[derive(Clone)]
pub struct ActiveModel {
    /// Monotone swap counter; bumped on every activation.
    pub generation: u64,
    /// Registry name the checkpoint was activated under.
    pub name: String,
    /// The checkpoint itself.
    pub checkpoint: Arc<ModelCheckpoint>,
}

/// Named-checkpoint store with one hot-swappable active model.
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ModelCheckpoint>>>,
    active: RwLock<Option<ActiveModel>>,
    generation: AtomicU64,
    /// Lazily built shared engine for the active model, keyed by the
    /// generation it was built from. One engine serves every worker.
    engine: RwLock<Option<(u64, Arc<InferenceEngine>)>>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry::new()
    }
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry {
            models: RwLock::new(HashMap::new()),
            active: RwLock::new(None),
            generation: AtomicU64::new(0),
            engine: RwLock::new(None),
        }
    }

    /// Register a checkpoint under `name` (replacing any previous one;
    /// an already-active model stays active on its old checkpoint until
    /// re-activated).
    pub fn register(&self, name: impl Into<String>, ckpt: ModelCheckpoint) {
        sync::write(&self.models).insert(name.into(), Arc::new(ckpt));
    }

    /// Load a checkpoint JSON from disk and register it under `name`.
    pub fn load(&self, name: impl Into<String>, path: impl AsRef<Path>) -> io::Result<()> {
        let json = std::fs::read_to_string(path)?;
        let ckpt: ModelCheckpoint = serde_json::from_str(&json)?;
        // Validate eagerly: a checkpoint that cannot restore must not
        // become activatable.
        checkpoint::restore(&ckpt).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.register(name, ckpt);
        Ok(())
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = sync::read(&self.models).keys().cloned().collect();
        names.sort();
        names
    }

    /// Make `name` the active model (hot swap): bumps the generation so
    /// workers rebuild their replicas at the next batch boundary.
    pub fn activate(&self, name: &str) -> Result<u64, RegistryError> {
        let ckpt = sync::read(&self.models)
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        // Bump the generation *inside* the write critical section:
        // concurrent activations then publish in generation order, so a
        // stale activation can never overwrite a newer one while the
        // counter says otherwise (the model checker's registry suite
        // asserts this generation/active consistency).
        let mut active = sync::write(&self.active);
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        *active = Some(ActiveModel {
            generation,
            name: name.to_string(),
            checkpoint: ckpt,
        });
        Ok(generation)
    }

    /// The active model, if any has been activated.
    pub fn active(&self) -> Option<ActiveModel> {
        sync::read(&self.active).clone()
    }

    /// Current generation (0 before the first activation).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// The shared engine for the active model: one frozen weight copy
    /// behind an `Arc`, cloned by every caller.
    ///
    /// The engine is built lazily, **outside** the cache lock (weight
    /// packing is the expensive part of construction), then installed
    /// if the cache does not already hold a same-or-newer generation —
    /// two threads racing after a swap cannot roll the cache backwards,
    /// and the loser simply serves the winner's engine. Callers that
    /// hold an older `Arc` (in-flight batches during a hot swap) keep
    /// it alive until they drop it; the old weights free once the last
    /// such caller finishes.
    ///
    /// The argument selects nothing (there is one [`Precision`]); it
    /// stays because `ledger/src/workloads/mod.rs` passes
    /// `ServeConfig::default_precision` here.
    pub fn shared_with(
        &self,
        _precision: Precision,
    ) -> Result<(u64, Arc<InferenceEngine>), RegistryError> {
        let active = self
            .active()
            .ok_or_else(|| RegistryError::UnknownModel("<no active model>".into()))?;
        if let Some((generation, engine)) = sync::read(&self.engine).as_ref() {
            if *generation >= active.generation {
                return Ok((*generation, engine.clone()));
            }
        }
        let fresh = Arc::new(build_engine(&active.checkpoint)?);
        let mut cache = sync::write(&self.engine);
        if let Some((generation, engine)) = cache.as_ref() {
            if *generation >= active.generation {
                // Lost the race to a same-or-newer build; serve that one.
                return Ok((*generation, engine.clone()));
            }
        }
        *cache = Some((active.generation, fresh.clone()));
        Ok((active.generation, fresh))
    }
}

fn build_engine(ckpt: &ModelCheckpoint) -> Result<InferenceEngine, RegistryError> {
    InferenceEngine::from_checkpoint(ckpt).map_err(|e| match e {
        EngineError::Checkpoint(msg) => RegistryError::Restore(msg),
        other => RegistryError::Restore(other.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_core::loss::NormStats;
    use adarnet_core::network::{AdarNet, AdarNetConfig};

    fn ckpt(seed: u64) -> ModelCheckpoint {
        let model = AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            seed,
            ..AdarNetConfig::default()
        });
        checkpoint::snapshot(&model, &NormStats::identity())
    }

    #[test]
    fn activate_bumps_generation() {
        let reg = ModelRegistry::new();
        reg.register("a", ckpt(1));
        reg.register("b", ckpt(2));
        assert_eq!(reg.generation(), 0);
        assert!(reg.active().is_none());
        let g1 = reg.activate("a").unwrap();
        let g2 = reg.activate("b").unwrap();
        assert!(g2 > g1);
        assert_eq!(reg.active().unwrap().name, "b");
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn activate_unknown_is_error() {
        let reg = ModelRegistry::new();
        assert_eq!(
            reg.activate("nope"),
            Err(RegistryError::UnknownModel("nope".into()))
        );
    }

    #[test]
    fn shared_with_caches_one_engine_per_generation() {
        let reg = ModelRegistry::new();
        reg.register("a", ckpt(1));
        reg.register("b", ckpt(2));
        assert!(
            reg.shared_with(Precision::F32).is_err(),
            "no active model yet"
        );
        reg.activate("a").unwrap();
        let (g1, e1) = reg.shared_with(Precision::F32).unwrap();
        let (g2, e2) = reg.shared_with(Precision::F32).unwrap();
        assert_eq!((g1, g2), (1, 1));
        assert!(Arc::ptr_eq(&e1, &e2), "one Arc per generation");
        assert_eq!(e1.config().ph, 8);
        reg.activate("b").unwrap();
        let (g3, e3) = reg.shared_with(Precision::F32).unwrap();
        let (g4, e4) = reg.shared_with(Precision::F32).unwrap();
        assert_eq!((g3, g4), (2, 2));
        assert!(!Arc::ptr_eq(&e1, &e3), "a swap builds a new engine");
        assert!(Arc::ptr_eq(&e3, &e4), "and caches it for its generation");
    }

    #[test]
    fn shared_swaps_on_activation_and_old_arc_survives() {
        let reg = ModelRegistry::new();
        reg.register("a", ckpt(1));
        reg.register("b", ckpt(2));
        reg.activate("a").unwrap();
        let (g_old, e_old) = reg.shared_with(Precision::F32).unwrap();
        reg.activate("b").unwrap();
        let (g_new, e_new) = reg.shared_with(Precision::F32).unwrap();
        assert!(g_new > g_old);
        assert!(!Arc::ptr_eq(&e_old, &e_new), "swap must build a new engine");
        // An in-flight holder of the old Arc still infers on the old
        // generation's weights.
        let x = adarnet_tensor::Tensor::from_vec(
            adarnet_tensor::Shape::d3(4, 16, 16),
            (0..4 * 256).map(|i| ((i as f32) * 0.02).sin()).collect(),
        );
        let old_pred = e_old.infer(&x).unwrap();
        let fresh_old = InferenceEngine::from_checkpoint(&ckpt(1)).unwrap();
        let want = fresh_old.infer(&x).unwrap();
        assert_eq!(old_pred.binning.bin_of_patch, want.binning.bin_of_patch);
        for (a, b) in old_pred.patches.iter().zip(&want.patches) {
            assert_eq!(a, b);
        }
    }
}

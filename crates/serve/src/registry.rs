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
//! [`ModelRegistry::shared`] is the serving entry point: one frozen
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
use adarnet_nn::quantize::PRECISION_COUNT;
use adarnet_nn::Precision;

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

/// One precision's shared engine, keyed by the generation it was built
/// from.
type EngineSlot = RwLock<Option<(u64, Arc<InferenceEngine>)>>;

/// Named-checkpoint store with one hot-swappable active model.
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ModelCheckpoint>>>,
    active: RwLock<Option<ActiveModel>>,
    generation: AtomicU64,
    /// Lazily built shared engines for the active model, one slot per
    /// weight-plane [`Precision`] (indexed by [`Precision::index`]).
    /// One engine per requested precision serves every worker;
    /// precisions nobody routes to are never built.
    engines: [EngineSlot; PRECISION_COUNT],
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
            engines: std::array::from_fn(|_| RwLock::new(None)),
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

    /// Build a fresh [`InferenceEngine`] replica of the active model.
    /// Serving does not need replicas (see [`ModelRegistry::shared`]);
    /// this remains for callers that want a private engine.
    pub fn replica(&self) -> Result<(u64, InferenceEngine), RegistryError> {
        let active = self
            .active()
            .ok_or_else(|| RegistryError::UnknownModel("<no active model>".into()))?;
        let engine = build_engine(&active.checkpoint, Precision::active())?;
        Ok((active.generation, engine))
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
    pub fn shared(&self) -> Result<(u64, Arc<InferenceEngine>), RegistryError> {
        self.shared_with(Precision::active())
    }

    /// [`ModelRegistry::shared`] at an explicit weight-plane
    /// [`Precision`]: each precision has its own cache slot, so a
    /// registry can hold an f32 and a bf16 engine of the same
    /// generation side by side (one frozen weight copy per precision)
    /// and admission routes each request to the plane its tenant asked
    /// for. Both slots hydrate lazily from the same checkpoint —
    /// narrowing happens at freeze.
    pub fn shared_with(
        &self,
        precision: Precision,
    ) -> Result<(u64, Arc<InferenceEngine>), RegistryError> {
        let active = self
            .active()
            .ok_or_else(|| RegistryError::UnknownModel("<no active model>".into()))?;
        let slot = &self.engines[precision.index()];
        if let Some((generation, engine)) = sync::read(slot).as_ref() {
            if *generation >= active.generation {
                return Ok((*generation, engine.clone()));
            }
        }
        let fresh = Arc::new(build_engine(&active.checkpoint, precision)?);
        let mut cache = sync::write(slot);
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

fn build_engine(
    ckpt: &ModelCheckpoint,
    precision: Precision,
) -> Result<InferenceEngine, RegistryError> {
    InferenceEngine::from_checkpoint_with(ckpt, precision).map_err(|e| match e {
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
    fn replica_restores_active_model() {
        let reg = ModelRegistry::new();
        reg.register("m", ckpt(7));
        assert!(reg.replica().is_err(), "no active model yet");
        reg.activate("m").unwrap();
        let (generation, engine) = reg.replica().unwrap();
        assert_eq!(generation, 1);
        assert_eq!(engine.config().ph, 8);
    }

    #[test]
    fn shared_returns_one_engine_per_generation() {
        let reg = ModelRegistry::new();
        reg.register("a", ckpt(1));
        assert!(reg.shared().is_err(), "no active model yet");
        reg.activate("a").unwrap();
        let (g1, e1) = reg.shared().unwrap();
        let (g2, e2) = reg.shared().unwrap();
        assert_eq!((g1, g2), (1, 1));
        assert!(
            Arc::ptr_eq(&e1, &e2),
            "same generation must share one engine"
        );
    }

    #[test]
    fn shared_with_caches_one_engine_per_precision() {
        let reg = ModelRegistry::new();
        reg.register("a", ckpt(3));
        reg.activate("a").unwrap();
        let (gf, ef) = reg.shared_with(Precision::F32).unwrap();
        let (gq, eq) = reg.shared_with(Precision::Bf16).unwrap();
        assert_eq!((gf, gq), (1, 1), "same generation, two planes");
        assert!(!Arc::ptr_eq(&ef, &eq), "precisions are distinct engines");
        assert_eq!(ef.precision(), Precision::F32);
        assert_eq!(eq.precision(), Precision::Bf16);
        assert!(
            eq.weight_bytes() * 100 <= ef.weight_bytes() * 55,
            "bf16 plane must cut resident bytes to <= 0.55x: {} vs {}",
            eq.weight_bytes(),
            ef.weight_bytes()
        );
        // Re-fetching each precision hits its cache slot.
        let (_, ef2) = reg.shared_with(Precision::F32).unwrap();
        let (_, eq2) = reg.shared_with(Precision::Bf16).unwrap();
        assert!(Arc::ptr_eq(&ef, &ef2));
        assert!(Arc::ptr_eq(&eq, &eq2));
    }

    #[test]
    fn shared_swaps_on_activation_and_old_arc_survives() {
        let reg = ModelRegistry::new();
        reg.register("a", ckpt(1));
        reg.register("b", ckpt(2));
        reg.activate("a").unwrap();
        let (g_old, e_old) = reg.shared().unwrap();
        reg.activate("b").unwrap();
        let (g_new, e_new) = reg.shared().unwrap();
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

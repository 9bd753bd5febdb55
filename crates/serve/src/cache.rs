//! Decoded-patch cache: content-addressed, LRU-evicted, collision-proof.
//!
//! ADARNet's decoder is the expensive stage, and flow fields arriving at
//! a serving endpoint are highly repetitive — freestream patches of the
//! same case family are byte-identical across requests. The cache keys
//! each decoded patch by a content hash of everything that determines
//! its output: the model generation, the bin level, and the raw bytes
//! of the decoder-input tensor (LR patch + latent + coordinate
//! channels). Keying on the full decoder input rather than the bare LR
//! patch is what makes hits *bitwise* safe: two identical LR patches at
//! different grid positions get different coordinate channels, hence
//! different keys.
//!
//! Hash collisions cannot corrupt results: every entry stores its full
//! key bytes, a hit compares them, and a mismatch is treated as a miss
//! and overwritten.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use adarnet_core::sync;
use adarnet_tensor::Tensor;

/// 64-bit hash of the key bytes, eight bytes per step over four
/// independent multiply-rotate lanes, so a step waits on no other
/// lane's multiply (a byte-wise hash chains one multiply per byte). A
/// short tail is zero-padded into whole words; the byte length and the
/// lanes, in order, are folded in at the end, so padding, word order
/// and lane order all reach the hash. Only the map slot depends on this
/// value — a hit is decided by comparing the full key bytes.
fn hash_bytes(bytes: &[u8]) -> u64 {
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
    fn mix(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(MUL).rotate_left(29)
    }
    fn word(bytes: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(w)
    }
    let mut lanes: [u64; 4] = std::array::from_fn(|i| MUL.wrapping_mul(2 * i as u64 + 1));
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word(w));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = mix(*lane, word(w));
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = mix(h, lane);
    }
    // splitmix64's finalizer: the last lane's high bits reach the low
    // ones the map indexes by.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Content key of one decoded patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchKey {
    bytes: Vec<u8>,
    hash: u64,
}

impl PatchKey {
    /// Build the key for a decoder input at `level` under model
    /// `generation`.
    pub fn new(generation: u64, level: u8, decoder_input: &Tensor<f32>) -> PatchKey {
        // Floats go through a stack buffer a block at a time: both the
        // fill and the append compile to `memcpy`.
        const BLOCK: usize = 256;
        let data = decoder_input.as_slice();
        let mut bytes = Vec::with_capacity(9 + 4 * data.len());
        bytes.extend_from_slice(&generation.to_le_bytes());
        bytes.push(level);
        let mut block = [0u8; 4 * BLOCK];
        for floats in data.chunks(BLOCK) {
            for (dst, v) in block.chunks_exact_mut(4).zip(floats) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            bytes.extend_from_slice(&block[..4 * floats.len()]);
        }
        let hash = hash_bytes(&bytes);
        PatchKey { bytes, hash }
    }
}

/// For callers of [`PatchCache::insert`] that keep their key: a
/// borrowed key copies its bytes in, where a caller that is done with
/// the key passes it by value and moves them.
impl From<&PatchKey> for PatchKey {
    fn from(key: &PatchKey) -> PatchKey {
        key.clone()
    }
}

struct Entry {
    key_bytes: Vec<u8>,
    value: Tensor<f32>,
    tick: u64,
}

struct CacheInner {
    /// hash → entry. Collisions resolved by exact key-byte comparison.
    map: HashMap<u64, Entry>,
    /// recency tick → hash, oldest first (exact LRU order).
    recency: BTreeMap<u64, u64>,
    tick: u64,
}

/// Shared LRU cache of decoded patches with hit/miss counters.
pub struct PatchCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PatchCache {
    /// Create a cache holding at most `capacity` decoded patches.
    /// `capacity == 0` disables caching (every lookup misses, inserts
    /// are dropped).
    pub fn new(capacity: usize) -> PatchCache {
        PatchCache {
            capacity,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether caching is active.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Count one lookup that found nothing. `infer_cached` calls this
    /// in place of [`get`](Self::get) when the cache is disabled, where
    /// building a key would be a copy and a hash for a certain miss.
    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        adarnet_obs::counter!("serve_cache_misses_total").inc();
    }

    /// Look up a decoded patch, refreshing its recency on hit.
    pub fn get(&self, key: &PatchKey) -> Option<Tensor<f32>> {
        if self.capacity == 0 {
            self.record_miss();
            return None;
        }
        let mut inner = sync::lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key.hash) {
            if entry.key_bytes == key.bytes {
                let old_tick = entry.tick;
                entry.tick = tick;
                let value = entry.value.clone();
                inner.recency.remove(&old_tick);
                inner.recency.insert(tick, key.hash);
                self.hits.fetch_add(1, Ordering::Relaxed);
                adarnet_obs::counter!("serve_cache_hits_total").inc();
                return Some(value);
            }
        }
        self.record_miss();
        None
    }

    /// Insert a decoded patch, evicting the least-recently-used entry
    /// if the cache is full. The key's bytes (up to 458 KB at bin 3)
    /// move into the entry, and the entry this insert displaces — the
    /// slot's previous holder, else the evicted one; never both, since
    /// only a new slot grows the map — is freed after the lock is
    /// released, so no lookup waits for a copy or a free that size.
    pub fn insert(&self, key: impl Into<PatchKey>, value: Tensor<f32>) {
        if self.capacity == 0 {
            return;
        }
        let PatchKey { bytes, hash } = key.into();
        let mut inner = sync::lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let entry = Entry {
            key_bytes: bytes,
            value,
            tick,
        };
        let mut displaced = inner.map.insert(hash, entry);
        if let Some(old) = &displaced {
            // Same hash slot reused (refresh or collision overwrite).
            inner.recency.remove(&old.tick);
        }
        inner.recency.insert(tick, hash);
        if inner.map.len() > self.capacity {
            match inner.recency.pop_first() {
                Some((_, oldest_hash)) => displaced = inner.map.remove(&oldest_hash),
                None => debug_assert!(false, "recency must track every entry"),
            }
        }
        drop(inner);
        drop(displaced);
    }

    /// Drop every entry (e.g. on model hot-swap; entries are also
    /// generation-keyed, so this is an optimization, not correctness).
    pub fn clear(&self) {
        let mut inner = sync::lock(&self.inner);
        inner.map.clear();
        inner.recency.clear();
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        sync::lock(&self.inner).map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits / (hits + misses), or 0 with no traffic.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_tensor::Shape;

    fn patch(seed: f32) -> Tensor<f32> {
        Tensor::from_vec(
            Shape::d3(1, 2, 2),
            (0..4).map(|i| seed + i as f32).collect(),
        )
    }

    #[test]
    fn hit_after_insert_returns_identical_tensor() {
        let cache = PatchCache::new(8);
        let input = patch(1.0);
        let key = PatchKey::new(0, 2, &input);
        assert!(cache.get(&key).is_none());
        let decoded = patch(100.0);
        cache.insert(&key, decoded.clone());
        assert_eq!(cache.get(&key).unwrap(), decoded);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn equal_hash_with_different_bytes_misses_then_overwrites() {
        // The module's collision claim, with the collision forced.
        let cache = PatchCache::new(8);
        let a = PatchKey::new(0, 0, &patch(1.0));
        let b = PatchKey {
            bytes: PatchKey::new(0, 0, &patch(2.0)).bytes,
            hash: a.hash,
        };
        assert_ne!(a.bytes, b.bytes);
        cache.insert(&a, patch(10.0));
        assert!(cache.get(&b).is_none(), "same slot, other bytes: a miss");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(&b, patch(20.0));
        assert_eq!(cache.len(), 1, "the colliding insert takes the slot over");
        assert_eq!(cache.get(&b).unwrap(), patch(20.0));
        assert!(cache.get(&a).is_none());
    }

    #[test]
    fn near_keys_hash_apart() {
        // 41 floats: five whole 32-byte blocks and a 13-byte tail.
        let floats: Vec<f32> = (0..41).map(|i| (i as f32 * 0.61).cos()).collect();
        let key = |generation, level, data: &[f32]| {
            PatchKey::new(
                generation,
                level,
                &Tensor::from_vec(Shape::d3(1, 1, data.len()), data.to_vec()),
            )
        };
        let base = key(7, 2, &floats);
        let edited = |i: usize, v: f32| {
            let mut data = floats.clone();
            data[i] = v;
            key(7, 2, &data)
        };
        let low_bit = f32::from_bits(floats[17].to_bits() ^ 1);
        let mut longer = floats.clone();
        longer.push(0.0);
        let mut zeroed = floats.clone();
        zeroed[23] = 0.0;
        let near = [
            ("generation", key(8, 2, &floats).hash),
            ("level", key(7, 3, &floats).hash),
            ("length", key(7, 2, &longer).hash),
            ("lowest bit of a block float", edited(17, low_bit).hash),
            ("lowest bit of the last float", edited(40, low_bit).hash),
        ];
        for (what, hash) in near {
            assert_ne!(hash, base.hash, "{what} must reach the hash");
        }
        assert_ne!(
            key(7, 2, &zeroed).hash,
            edited(23, -0.0).hash,
            "+0.0 and -0.0 are different bytes"
        );
        // Whole words exchanged between two lanes, and between two
        // steps of one lane.
        for (i, j) in [(2, 5), (2, 6)] {
            let mut bytes = base.bytes.clone();
            for k in 0..8 {
                bytes.swap(8 * i + k, 8 * j + k);
            }
            assert_ne!(bytes, base.bytes);
            assert_ne!(hash_bytes(&bytes), base.hash, "words {i} and {j} swapped");
        }
    }

    #[test]
    fn decoder_inputs_of_thirteen_fields_hash_distinct() {
        // The ledger's serving pool: 13 fields of 64x256 in 16x16
        // patches, 832 decoder inputs from 7 KB (bin 0) to 458 KB.
        use adarnet_core::network::{AdarNet, AdarNetConfig};
        let frozen = AdarNet::new(AdarNetConfig::default()).freeze();
        let mut hashes = std::collections::HashSet::new();
        for field in crate::field_pool(13, 64, 256, 1) {
            let plan = frozen.try_plan(&field).expect("finite scores");
            for pi in 0..plan.layout.num_patches() {
                let input = plan.decoder_input(pi);
                hashes.insert(PatchKey::new(1, plan.binning.level_of(pi), &input).hash);
            }
        }
        assert_eq!(hashes.len(), 832);
    }

    #[test]
    fn level_and_generation_distinguish_identical_patches() {
        let cache = PatchCache::new(8);
        let input = patch(1.0);
        cache.insert(PatchKey::new(0, 1, &input), patch(10.0));
        assert!(cache.get(&PatchKey::new(0, 2, &input)).is_none());
        assert!(cache.get(&PatchKey::new(1, 1, &input)).is_none());
        assert_eq!(
            cache.get(&PatchKey::new(0, 1, &input)).unwrap(),
            patch(10.0)
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PatchCache::new(2);
        let (ka, kb, kc) = (
            PatchKey::new(0, 0, &patch(1.0)),
            PatchKey::new(0, 0, &patch(2.0)),
            PatchKey::new(0, 0, &patch(3.0)),
        );
        cache.insert(&ka, patch(10.0));
        cache.insert(&kb, patch(20.0));
        // Touch A so B is now the LRU entry.
        assert!(cache.get(&ka).is_some());
        cache.insert(&kc, patch(30.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&kb).is_none(), "B should be evicted");
        assert!(cache.get(&ka).is_some());
        assert!(cache.get(&kc).is_some());
    }

    #[test]
    fn insert_past_capacity_frees_exactly_one_entry() {
        let cache = PatchCache::new(3);
        let key = |i: usize| PatchKey::new(0, 0, &patch(i as f32));
        for i in 0..3 {
            cache.insert(key(i), patch(10.0 + i as f32));
        }
        assert_eq!(cache.len(), 3);
        for i in 3..8 {
            cache.insert(key(i), patch(10.0 + i as f32));
            assert_eq!(cache.len(), 3, "one in, one out");
            assert!(cache.get(&key(i - 3)).is_none(), "the oldest entry went");
            for kept in i - 2..=i {
                assert_eq!(cache.get(&key(kept)).unwrap(), patch(10.0 + kept as f32));
            }
        }
        // Refreshing a held key displaces its old value and evicts nothing.
        cache.insert(key(7), patch(99.0));
        assert_eq!(cache.len(), 3);
        for kept in 5..7 {
            assert!(cache.get(&key(kept)).is_some());
        }
        assert_eq!(cache.get(&key(7)).unwrap(), patch(99.0));
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = PatchCache::new(0);
        let key = PatchKey::new(0, 0, &patch(1.0));
        cache.insert(&key, patch(9.0));
        assert!(cache.get(&key).is_none());
        assert!(!cache.enabled());
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_empties() {
        let cache = PatchCache::new(4);
        cache.insert(PatchKey::new(0, 0, &patch(1.0)), patch(5.0));
        cache.clear();
        assert!(cache.is_empty());
    }
}

//! Per-tenant token-bucket admission quotas.
//!
//! Each tenant owns a token bucket: `burst` tokens of instantaneous
//! headroom, refilled continuously at `rate_per_sec` tokens per second.
//! A request takes one token at admission; an empty bucket means the
//! request is shed (degraded bin-0 response with
//! [`crate::server::RejectReason::QuotaExceeded`]) before it can touch
//! the lanes — one tenant flooding bulk traffic cannot consume another
//! tenant's queue capacity.
//!
//! All arithmetic is in integer *nano-tokens* (`1 token = 1e9
//! nano-tokens`) against a caller-supplied `now_ns` clock, so refill is
//! exact (no float drift), deterministic under a logical clock, and
//! checkable by the `QuotaModel` oracle in `crates/check`: over any
//! window, `granted ≤ burst + window_ns * rate / 1e9` (conservation).

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use adarnet_core::sync;

/// Nano-tokens per token.
const NANO: u64 = 1_000_000_000;

/// Distinct tenant ids given a bucket (and, in the server, a counter
/// set) of their own. Tenant ids come off the wire, so per-tenant state
/// must not grow with the ids a peer invents: past this many, a new id
/// shares one overflow bucket and one overflow counter set.
///
/// The quota table gives a slot back: at the cap, a new tenant takes
/// the slot of a bucket that has refilled to `burst`, which is the
/// state a fresh bucket starts in. That changes no admit/deny decision
/// under a monotonic clock only if a full bucket is found when an
/// evicted tenant returns; if none is, the returning tenant draws from
/// the shared overflow bucket, which it never would have had it kept
/// its slot. The tenant counters never give a slot back, because a
/// metric name, once registered, is permanent: a peer cycling this many
/// junk ids leaves every later tenant counting into
/// `serve_tenant_overflow_*` for the life of the process. The two maps
/// therefore fill independently: near the cap a tenant can hold its own
/// bucket yet count into the overflow set.
pub const MAX_TRACKED_TENANTS: usize = 1024;

/// Tracked values one [`TenantMap::evict`] call inspects, so a request
/// from an untracked tenant at the cap costs a bounded search.
const EVICT_PROBES: usize = 8;

/// Per-tenant values under that cap: one `V` each for up to
/// [`MAX_TRACKED_TENANTS`] tenants, one shared `V` for the rest.
pub(crate) struct TenantMap<V> {
    tracked: HashMap<u64, V>,
    /// The keys of `tracked`, in the order [`TenantMap::evict`] sweeps.
    ids: Vec<u64>,
    /// Where the next sweep resumes in `ids`.
    cursor: usize,
    overflow: Option<V>,
}

impl<V> Default for TenantMap<V> {
    fn default() -> Self {
        TenantMap {
            tracked: HashMap::new(),
            ids: Vec::new(),
            cursor: 0,
            overflow: None,
        }
    }
}

impl<V> TenantMap<V> {
    /// `tenant`'s value, made on first sight by `fresh(Some(tenant))`
    /// while there is room, else the shared one from `fresh(None)`.
    pub(crate) fn slot(&mut self, tenant: u64, fresh: impl FnOnce(Option<u64>) -> V) -> &mut V {
        let room = self.tracked.len() < MAX_TRACKED_TENANTS;
        match self.tracked.entry(tenant) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) if room => {
                self.ids.push(tenant);
                e.insert(fresh(Some(tenant)))
            }
            Entry::Vacant(_) => self.overflow.get_or_insert_with(|| fresh(None)),
        }
    }

    /// At the cap, with `tenant` untracked, drop the first tracked value
    /// `spare` accepts among the next [`EVICT_PROBES`] of a sweep that
    /// resumes where the last call stopped, so that the following
    /// [`TenantMap::slot`] gives `tenant` the freed slot.
    pub(crate) fn evict(&mut self, tenant: u64, spare: impl Fn(&V) -> bool) {
        if self.tracked.len() < MAX_TRACKED_TENANTS || self.tracked.contains_key(&tenant) {
            return;
        }
        for _ in 0..EVICT_PROBES.min(self.ids.len()) {
            self.cursor %= self.ids.len();
            let id = self.ids[self.cursor];
            if self.tracked.get(&id).is_some_and(&spare) {
                self.tracked.remove(&id);
                self.ids.swap_remove(self.cursor);
                return;
            }
            self.cursor += 1;
        }
    }
}

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Sustained admission rate, tokens (requests) per second. Clamped
    /// to ≥ 1.
    pub rate_per_sec: u64,
    /// Instantaneous burst headroom, tokens. Clamped to ≥ 1.
    pub burst: u64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            rate_per_sec: 1000,
            burst: 100,
        }
    }
}

/// A single tenant's bucket. Pure state machine over a `now_ns` clock —
/// no internal time source — so the model checker can drive it with a
/// logical clock and the server drives it with [`Instant`].
#[derive(Debug, Clone)]
pub struct TokenBucket {
    cfg: QuotaConfig,
    /// Current fill, nano-tokens. Invariant: `≤ burst * NANO`.
    tokens_nano: u64,
    /// Clock value at the last refill.
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket that starts full (a new tenant gets its burst headroom
    /// immediately).
    pub fn new(cfg: QuotaConfig, now_ns: u64) -> TokenBucket {
        let cfg = QuotaConfig {
            rate_per_sec: cfg.rate_per_sec.max(1),
            burst: cfg.burst.max(1),
        };
        TokenBucket {
            cfg,
            tokens_nano: cfg.burst.saturating_mul(NANO),
            last_ns: now_ns,
        }
    }

    /// Refill for the elapsed clock, then try to take one token.
    /// Returns whether the request is admitted. A non-monotonic clock
    /// (now < last) refills nothing rather than underflowing.
    pub fn try_take(&mut self, now_ns: u64) -> bool {
        let elapsed = now_ns.saturating_sub(self.last_ns);
        self.last_ns = self.last_ns.max(now_ns);
        let cap = self.cfg.burst.saturating_mul(NANO);
        let refill = (elapsed as u128).saturating_mul(self.cfg.rate_per_sec as u128);
        let refill = u64::try_from(refill).unwrap_or(u64::MAX);
        self.tokens_nano = self.tokens_nano.saturating_add(refill).min(cap);
        if self.tokens_nano >= NANO {
            self.tokens_nano -= NANO;
            true
        } else {
            false
        }
    }

    /// Whether the bucket has refilled to `burst` by `now_ns`: the state
    /// a fresh bucket starts in.
    fn full_at(&self, now_ns: u64) -> bool {
        let elapsed = now_ns.saturating_sub(self.last_ns) as u128;
        let fill = (self.tokens_nano as u128)
            .saturating_add(elapsed.saturating_mul(self.cfg.rate_per_sec as u128));
        fill >= self.cfg.burst as u128 * NANO as u128
    }

    /// Current fill in whole tokens (diagnostic).
    pub fn available(&self) -> u64 {
        self.tokens_nano / NANO
    }

    /// The limits this bucket enforces.
    pub fn config(&self) -> QuotaConfig {
        self.cfg
    }
}

/// Lazily-populated map of tenant id → bucket, sharing one
/// [`QuotaConfig`] (per-tenant overrides can layer on later without a
/// wire change — the frame already carries the tenant id). A tenant's
/// bucket is created full on first sight, for up to
/// [`MAX_TRACKED_TENANTS`] tenants at a time; at the cap a new tenant
/// replaces one whose bucket a bounded sweep finds full again, or else
/// draws from one shared overflow bucket.
pub struct QuotaTable {
    cfg: QuotaConfig,
    epoch: Instant,
    buckets: Mutex<TenantMap<TokenBucket>>,
}

impl QuotaTable {
    /// Build a table enforcing `cfg` for every tenant.
    pub fn new(cfg: QuotaConfig) -> QuotaTable {
        QuotaTable {
            cfg,
            epoch: Instant::now(),
            buckets: Mutex::new(TenantMap::default()),
        }
    }

    /// Admit-or-shed decision for one request from `tenant`, against
    /// the wall clock.
    pub fn try_take(&self, tenant: u64) -> bool {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        self.try_take_at(tenant, now_ns)
    }

    /// Clock-explicit variant (tests and the model checker).
    pub fn try_take_at(&self, tenant: u64, now_ns: u64) -> bool {
        let mut buckets = sync::lock(&self.buckets);
        buckets.evict(tenant, |b| b.full_at(now_ns));
        buckets
            .slot(tenant, |_| TokenBucket::new(self.cfg, now_ns))
            .try_take(now_ns)
    }

    /// Tenants holding a bucket of their own (at most
    /// [`MAX_TRACKED_TENANTS`]).
    pub fn tenants(&self) -> usize {
        sync::lock(&self.buckets).tracked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: QuotaConfig = QuotaConfig {
        rate_per_sec: 10,
        burst: 3,
    };

    #[test]
    fn burst_then_deny_then_refill() {
        let mut b = TokenBucket::new(CFG, 0);
        // Full burst available immediately.
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0), "burst exhausted");
        // 10 tokens/s → one token every 100ms.
        assert!(!b.try_take(50_000_000), "half a token is not a token");
        assert!(b.try_take(100_000_000));
        assert!(!b.try_take(100_000_000), "spent the refilled token");
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(CFG, 0);
        for _ in 0..CFG.burst {
            assert!(b.try_take(0));
        }
        // A long idle period refills to burst, not beyond.
        let much_later = 3600 * NANO;
        for _ in 0..CFG.burst {
            assert!(b.try_take(much_later));
        }
        assert!(!b.try_take(much_later), "cap exceeded");
    }

    #[test]
    fn conservation_over_a_window() {
        // granted ≤ burst + elapsed * rate / 1e9, for a dense request
        // stream at a fixed tick.
        let mut b = TokenBucket::new(CFG, 0);
        let tick = 17_000_000u64; // 17ms
        let mut granted = 0u64;
        let mut now = 0u64;
        for _ in 0..200 {
            if b.try_take(now) {
                granted += 1;
            }
            now += tick;
        }
        let elapsed = 199 * tick;
        let bound = CFG.burst + (elapsed as u128 * CFG.rate_per_sec as u128 / NANO as u128) as u64;
        assert!(granted <= bound + 1, "granted {granted} > bound {bound}");
        // And the bucket is not uselessly strict: sustained rate is
        // achieved within rounding.
        assert!(
            granted + 2 >= bound.min(200),
            "granted {granted} far below bound {bound}"
        );
    }

    #[test]
    fn non_monotonic_clock_is_tolerated() {
        let mut b = TokenBucket::new(CFG, NANO);
        for _ in 0..CFG.burst {
            assert!(b.try_take(NANO));
        }
        // Clock jumps backwards: no refill, no underflow, no panic.
        assert!(!b.try_take(0));
        // Forward progress from the max clock seen still refills.
        assert!(b.try_take(NANO + 100_000_000));
    }

    #[test]
    fn table_isolates_tenants() {
        let table = QuotaTable::new(QuotaConfig {
            rate_per_sec: 1,
            burst: 2,
        });
        assert!(table.try_take_at(1, 0));
        assert!(table.try_take_at(1, 0));
        assert!(!table.try_take_at(1, 0), "tenant 1 exhausted");
        // Tenant 2's bucket is untouched.
        assert!(table.try_take_at(2, 0));
        assert_eq!(table.tenants(), 2);
    }

    #[test]
    fn tenants_past_the_cap_share_one_bucket() {
        let table = QuotaTable::new(QuotaConfig {
            rate_per_sec: 1,
            burst: 1,
        });
        let admitted = (0..10_000).filter(|&t| table.try_take_at(t, 0)).count();
        assert_eq!(table.tenants(), MAX_TRACKED_TENANTS);
        // One token per tracked tenant, one for everyone after them.
        assert_eq!(admitted, MAX_TRACKED_TENANTS + 1);
        // A tracked tenant keeps its own bucket among the overflow.
        assert!(table.try_take_at(0, NANO));
    }

    #[test]
    fn a_refilled_bucket_gives_its_slot_to_a_new_tenant() {
        let cfg = QuotaConfig {
            rate_per_sec: 1,
            burst: 2,
        };
        let (table, cap, s) = (QuotaTable::new(cfg), MAX_TRACKED_TENANTS as u64, NANO);
        let tracked = |t| sync::lock(&table.buckets).tracked.contains_key(&t);
        // At t=0 tenants 0..cap fill the cap and each spends its whole
        // burst; nothing is full, so tenant `cap` draws the overflow burst.
        for t in 0..=cap {
            assert!(table.try_take_at(t, 0) && table.try_take_at(t, 0));
        }
        let mut twin = TokenBucket::new(cfg, 0);
        assert!(twin.try_take(0) && twin.try_take(0) && !tracked(cap));
        // At t=2s every bucket is full again: a new tenant gets its own.
        assert!(table.try_take_at(cap + 1, 2 * s) && tracked(cap + 1));
        assert_eq!(table.tenants(), MAX_TRACKED_TENANTS);
        // The evicted tenant returns while other buckets are full, and
        // decides like its never-evicted twin.
        let gone = (0..cap).find(|&t| !tracked(t)).unwrap();
        for now in [2, 2, 2, 3, 6, 6, 6].map(|k| k * s) {
            assert_eq!(table.try_take_at(gone, now), twin.try_take(now), "{now}");
        }
        // With no bucket full, an evicted tenant that returns is demoted
        // to the overflow bucket, as it would not be had it kept its slot.
        let again = (0..cap).find(|&t| !tracked(t)).unwrap();
        for t in (0..cap + 2).filter(|&t| tracked(t)) {
            table.try_take_at(t, 6 * s);
        }
        assert!(table.try_take_at(again, 6 * s) && !tracked(again));
        assert_eq!(table.tenants(), MAX_TRACKED_TENANTS);
    }

    #[test]
    fn eviction_probes_a_bounded_sweep() {
        let (mut map, cap) = (TenantMap::default(), MAX_TRACKED_TENANTS as u64);
        for t in 0..cap {
            map.slot(t, |_| t);
        }
        // 10,000 untracked tenants at the cap with nothing spare: each
        // evict inspects EVICT_PROBES slots, not the whole table.
        let probes = std::cell::Cell::new(0);
        for t in cap..cap + 10_000 {
            map.evict(t, |_| {
                probes.set(probes.get() + 1);
                false
            });
        }
        assert_eq!(probes.get(), 10_000 * EVICT_PROBES);
        // The sweep resumes where it stopped, so it finds the one spare
        // slot within one pass over the table.
        for _ in 0..MAX_TRACKED_TENANTS / EVICT_PROBES {
            map.evict(cap, |&v| v == cap - 1);
        }
        assert!(!map.tracked.contains_key(&(cap - 1)));
    }
}

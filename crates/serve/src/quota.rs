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
//! window, `granted ≤ burst + elapsed_ns * rate / 1e9` (conservation).

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use adarnet_core::sync;

/// Nano-tokens per token.
const NANO: u64 = 1_000_000_000;

/// Distinct tenant ids given a bucket (and, in the server, a counter
/// set) of their own. Tenant ids come off the wire, so per-tenant state
/// must not grow with the ids a peer invents: ids first seen after this
/// many share one overflow bucket and one overflow counter set.
///
/// Known limitation (ROADMAP item 4): a slot is never given back, so a
/// peer cycling this many junk ids leaves every later tenant on the
/// overflow bucket's one `rate_per_sec`/`burst` for the life of the
/// process. The quota table (per server) and the tenant counters
/// (process-wide) fill independently: near the cap a tenant can hold
/// its own bucket yet count into `serve_tenant_overflow_*`, or the reverse.
pub const MAX_TRACKED_TENANTS: usize = 1024;

/// Per-tenant values under that cap: one `V` each for the first
/// [`MAX_TRACKED_TENANTS`] tenants seen, one shared `V` for the rest.
pub(crate) struct TenantMap<V> {
    tracked: HashMap<u64, V>,
    overflow: Option<V>,
}

impl<V> Default for TenantMap<V> {
    fn default() -> Self {
        TenantMap {
            tracked: HashMap::new(),
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
            Entry::Vacant(e) if room => e.insert(fresh(Some(tenant))),
            Entry::Vacant(_) => self.overflow.get_or_insert_with(|| fresh(None)),
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
/// bucket is created full on first sight, for the first
/// [`MAX_TRACKED_TENANTS`] tenants; later ones draw from one shared
/// overflow bucket.
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
        sync::lock(&self.buckets)
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
}

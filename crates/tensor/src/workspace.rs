//! Thread-aware scratch workspace: size-classed reusable `f32` buffer
//! pools plus the allocation-observability hook the zero-alloc tests
//! assert against.
//!
//! The hot path of both training epochs and steady-state inference is
//! dominated by conv/deconv kernels that need short-lived buffers:
//! im2col panels, layer outputs, flipped weight copies. Allocating those
//! fresh on every call costs page faults and allocator contention
//! across the serving workers. This module keeps returned buffers on
//! power-of-two "shelves" so a steady-state workload recycles the same
//! arenas forever.
//!
//! Design (DESIGN.md §10):
//!
//! * **Size classes.** Shelf `s` holds buffers whose capacity lies in
//!   `[2^s, 2^(s+1))`. [`take_scratch`]`(len)` pops from shelf
//!   `ceil(log2(len))`, which guarantees `capacity >= len`; a miss
//!   allocates `len.next_power_of_two()` so the buffer re-enters the
//!   same shelf on [`put`]. Capacity is therefore at most 2× the live
//!   requirement and never creeps.
//! * **Thread awareness.** Shelves are independent `Mutex<Vec<_>>`
//!   slots, so threads contending for *different* size classes never
//!   serialize, and the per-shelf critical section is a push/pop.
//!   Locks are poison-tolerant: a panicking test thread must not wedge
//!   the pool for the rest of the process.
//! * **Bounded retention.** Each shelf keeps at most
//!   [`MAX_PER_SHELF`] buffers; put beyond that drops the buffer, so
//!   a transient burst (e.g. a wide training batch) cannot pin its
//!   peak memory forever.
//! * **Held lanes.** A thread running under [`hold`] puts its buffers
//!   into a private stash instead of the shelves, and takes from that
//!   stash first. A batch split over lanes therefore draws from the
//!   shelves exactly each lane's own peak, whatever order the lanes run
//!   in, and the stashes go back only after every lane has joined: the
//!   pool's high-water mark does not depend on the interleaving.
//! * **Observability.** Every *fresh* heap allocation of tensor data —
//!   a pool miss here, or any `Tensor` constructor/clone building a new
//!   backing `Vec` — bumps a process-wide counter readable via
//!   [`data_allocs`]. The workspace crate cannot install a counting
//!   `#[global_allocator]` (the workspace denies `unsafe_code`), so the
//!   counter instruments the data plane at the source instead: control
//!   structures (small index `Vec`s, result spines) are documented
//!   out of scope. Tests snapshot the counter, run a steady-state
//!   window, and assert it did not move.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of power-of-two size classes. Shelf 40 covers buffers up to
/// 2^41 elements (8 TiB of f32) — far beyond any tensor in this
/// workspace, so every request maps to a shelf.
const SHELVES: usize = 41;

/// Maximum buffers retained per shelf. 64 covers the deepest fan-out in
/// the decoder (6 layers × worker threads) with slack; beyond that,
/// buffers are dropped back to the allocator.
pub const MAX_PER_SHELF: usize = 64;

/// Process-wide count of fresh data-plane heap allocations: pool misses
/// plus instrumented `Tensor` buffer constructions.
static DATA_ALLOCS: AtomicU64 = AtomicU64::new(0);

static POOL: Pool = Pool::new();

struct Pool {
    shelves: [Mutex<Vec<Vec<f32>>>; SHELVES],
}

impl Pool {
    const fn new() -> Self {
        // `Mutex::new` is const, but array-repeat needs Copy; build
        // explicitly via a const block repeat.
        Pool {
            shelves: [const { Mutex::new(Vec::new()) }; SHELVES],
        }
    }
}

/// Shelf index a buffer of capacity `cap` belongs on: `floor(log2(cap))`.
#[inline]
fn shelf_of_capacity(cap: usize) -> usize {
    debug_assert!(cap > 0);
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// Shelf index guaranteed to satisfy a request of `len` elements:
/// `ceil(log2(len))`, i.e. the class of `len.next_power_of_two()`.
#[inline]
fn shelf_for_request(len: usize) -> usize {
    debug_assert!(len > 0);
    shelf_of_capacity(len.next_power_of_two())
}

/// Bump the fresh-allocation counter by one. Public so `Tensor`
/// constructors (and any other data-plane allocation site) can report
/// through the same channel the zero-alloc tests observe.
#[inline]
pub fn note_data_alloc() {
    DATA_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Total fresh data-plane allocations since process start. Monotonic;
/// compare two snapshots to count allocations in a window.
pub fn data_allocs() -> u64 {
    DATA_ALLOCS.load(Ordering::Relaxed)
}

/// Take a buffer of exactly `len` elements with *unspecified* contents
/// (stale data from a previous user on a pool hit). Use when every
/// element will be overwritten; otherwise use [`take_zeroed`].
pub fn take_scratch(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    match pop(&POOL.shelves, shelf_for_request(len)) {
        Some(mut buf) => {
            adarnet_obs::counter!("tensor_pool_hits_total").inc();
            debug_assert!(buf.capacity() >= len);
            buf.resize(len, 0.0);
            buf
        }
        None => {
            note_data_alloc();
            adarnet_obs::counter!("tensor_pool_misses_total").inc();
            let mut buf = Vec::with_capacity(len.next_power_of_two());
            buf.resize(len, 0.0);
            buf
        }
    }
}

/// Take a buffer of exactly `len` zeroed elements.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take_scratch(len);
    buf.fill(0.0);
    buf
}

/// Return a buffer to the pool for reuse. Zero-capacity buffers and
/// overflow beyond the shelf cap are dropped.
pub fn put(buf: Vec<f32>) {
    if buf.capacity() > 0 {
        push(&POOL.shelves, buf);
    }
}

/// Number of buffers currently pooled across all shelves, scalar and
/// aligned (diagnostic).
pub fn pooled_buffers() -> usize {
    let scalar: usize = POOL
        .shelves
        .iter()
        .map(|m| m.lock().unwrap_or_else(|p| p.into_inner()).len())
        .sum();
    let aligned: usize = ALIGNED_POOL
        .shelves
        .iter()
        .map(|m| m.lock().unwrap_or_else(|p| p.into_inner()).len())
        .sum();
    scalar + aligned
}

/// Drop every pooled buffer, scalar and aligned (test isolation helper).
pub fn clear() {
    for shelf in &POOL.shelves {
        shelf.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
    for shelf in &ALIGNED_POOL.shelves {
        shelf.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
}

/// Floats per alignment lane: 16 f32 = 64 bytes = one cache line / one
/// AVX-512 vector / two AVX2 vectors.
const LANE_FLOATS: usize = 16;

/// One 64-byte-aligned lane of 16 f32s. `repr(C)` pins the array as the
/// sole, offset-0 field so a `Vec<Lane>` is a contiguous, initialized
/// run of `len * 16` f32s starting on a cache-line boundary.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Lane([f32; LANE_FLOATS]);

const ZERO_LANE: Lane = Lane([0.0; LANE_FLOATS]);

/// A pool-managed `f32` buffer whose storage is 64-byte aligned, for
/// SIMD kernels whose vector loads must never split a cache line
/// (DESIGN.md §10.6). Dereferences to `[f32]` like the plain pooled
/// `Vec<f32>` buffers.
///
/// Why a dedicated type: over-aligning a `Vec<f32>` directly is
/// impossible without raw allocator calls (the deallocation `Layout`
/// must match), so alignment rides on the element type instead — the
/// buffer is a `Vec` of 64-byte `Lane`s viewed as floats, and the
/// `Vec` keeps normal ownership/drop semantics. Length is tracked in
/// floats and may leave the tail of the last lane unused.
pub struct AlignedBuf {
    lanes: Vec<Lane>,
    len: usize,
}

impl AlignedBuf {
    /// An empty buffer with no storage. Allocation-free; grow with
    /// [`AlignedBuf::resize`].
    pub const fn new() -> Self {
        AlignedBuf {
            lanes: Vec::new(),
            len: 0,
        }
    }

    /// Length in floats.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero floats.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in floats (whole lanes).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.lanes.capacity() * LANE_FLOATS
    }

    /// Resize to `len` floats. Newly exposed *lanes* are zeroed; floats
    /// uncovered within an already-live lane keep their previous
    /// (unspecified) contents — same contract as [`take_scratch`].
    pub fn resize(&mut self, len: usize) {
        self.lanes.resize(len.div_ceil(LANE_FLOATS), ZERO_LANE);
        self.len = len;
    }

    /// View the buffer as a float slice.
    #[inline]
    #[expect(
        unsafe_code,
        reason = "AlignedBuf's slice view over the Lane-array allocation it owns; this is the one place the 64-byte alignment contract for SIMD loads is implemented"
    )]
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: `Lane` is `repr(C, align(64))` over `[f32; 16]`, so
        // `lanes` is a contiguous run of `lanes.len() * 16` initialized
        // f32s, and `self.len <= lanes.len() * 16` by construction
        // (`resize` is the only length mutator).
        unsafe { std::slice::from_raw_parts(self.lanes.as_ptr().cast::<f32>(), self.len) }
    }

    /// View the buffer as a mutable float slice.
    #[inline]
    #[expect(
        unsafe_code,
        reason = "AlignedBuf's mutable slice view, under the same contract as `as_slice`"
    )]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as in `as_slice`; `&mut self` gives exclusive access.
        unsafe { std::slice::from_raw_parts_mut(self.lanes.as_mut_ptr().cast::<f32>(), self.len) }
    }
}

impl Default for AlignedBuf {
    fn default() -> Self {
        AlignedBuf::new()
    }
}

impl Deref for AlignedBuf {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

static ALIGNED_POOL: AlignedPool = AlignedPool::new();

struct AlignedPool {
    shelves: [Mutex<Vec<AlignedBuf>>; SHELVES],
}

impl AlignedPool {
    const fn new() -> Self {
        AlignedPool {
            shelves: [const { Mutex::new(Vec::new()) }; SHELVES],
        }
    }
}

/// Take a 64-byte-aligned buffer of exactly `len` floats with
/// *unspecified* contents, from the aligned shelf pool. Same
/// size-class, retention, and observability rules as [`take_scratch`];
/// return with [`put_aligned`].
pub fn take_aligned(len: usize) -> AlignedBuf {
    if len == 0 {
        return AlignedBuf {
            lanes: Vec::new(),
            len: 0,
        };
    }
    let lanes = len.div_ceil(LANE_FLOATS);
    match pop(&ALIGNED_POOL.shelves, shelf_for_request(lanes)) {
        Some(mut buf) => {
            adarnet_obs::counter!("tensor_pool_hits_total").inc();
            debug_assert!(buf.lanes.capacity() >= lanes);
            buf.resize(len);
            buf
        }
        None => {
            note_data_alloc();
            adarnet_obs::counter!("tensor_pool_misses_total").inc();
            let mut fresh = Vec::with_capacity(lanes.next_power_of_two());
            fresh.resize(lanes, ZERO_LANE);
            AlignedBuf { lanes: fresh, len }
        }
    }
}

/// Return an aligned buffer to the pool for reuse. Zero-capacity
/// buffers and overflow beyond the shelf cap are dropped.
pub fn put_aligned(buf: AlignedBuf) {
    if buf.lanes.capacity() > 0 {
        push(&ALIGNED_POOL.shelves, buf);
    }
}

/// A buffer kind the pool keeps on size-class shelves.
trait Pooled: Sized {
    /// The shelf this buffer's capacity belongs on.
    fn shelf(&self) -> usize;
    /// This kind's part of a lane's stash.
    fn stash(held: &mut Held) -> &mut Vec<Self>;
}

impl Pooled for Vec<f32> {
    fn shelf(&self) -> usize {
        shelf_of_capacity(self.capacity())
    }
    fn stash(held: &mut Held) -> &mut Vec<Self> {
        &mut held.scalar
    }
}

impl Pooled for AlignedBuf {
    fn shelf(&self) -> usize {
        shelf_of_capacity(self.lanes.capacity())
    }
    fn stash(held: &mut Held) -> &mut Vec<Self> {
        &mut held.aligned
    }
}

/// A buffer for `shelf`: from this thread's stash under [`hold`] first,
/// then from the shared shelf.
fn pop<B: Pooled>(shelves: &[Mutex<Vec<B>>; SHELVES], shelf: usize) -> Option<B> {
    let held = HELD.with_borrow_mut(|held| {
        let stash = B::stash(held.as_mut()?);
        let at = stash.iter().position(|b| b.shelf() == shelf)?;
        Some(stash.swap_remove(at))
    });
    held.or_else(|| {
        shelves[shelf]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
    })
}

/// Return a non-empty buffer: into this thread's stash under [`hold`],
/// else onto its shared shelf, up to [`MAX_PER_SHELF`].
fn push<B: Pooled>(shelves: &[Mutex<Vec<B>>; SHELVES], buf: B) {
    let Some(buf) = HELD.with_borrow_mut(|held| match held {
        Some(held) => {
            B::stash(held).push(buf);
            None
        }
        None => Some(buf),
    }) else {
        return;
    };
    let mut guard = shelves[buf.shelf()]
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    if guard.len() < MAX_PER_SHELF {
        guard.push(buf);
    }
}

thread_local! {
    /// The stash of the [`hold`] running on this thread, if any.
    static HELD: RefCell<Option<Held>> = const { RefCell::new(None) };
}

/// The buffers one lane put back while it ran under [`hold`], kept off
/// the shared shelves until [`Held::release`].
#[derive(Default)]
pub struct Held {
    scalar: Vec<Vec<f32>>,
    aligned: Vec<AlignedBuf>,
}

impl Held {
    /// Put every held buffer back on the shared shelves.
    pub fn release(self) {
        self.scalar.into_iter().for_each(put);
        self.aligned.into_iter().for_each(put_aligned);
    }
}

/// Run `f` as one lane of a split: every buffer `f` returns to the pool
/// goes into a stash private to this call, and `f` takes from that
/// stash before the shared shelves. So `f` draws from the shelves
/// exactly its own peak, however other lanes interleave with it. The
/// stash comes back beside `f`'s result; release it once every lane of
/// the split has joined. If `f` panics, the stash goes straight back to
/// the shelves.
pub fn hold<R>(f: impl FnOnce() -> R) -> (R, Held) {
    /// Reinstates the enclosing stash; on unwind, releases this one.
    struct Restore(Option<Held>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(held) = HELD.replace(self.0.take()) {
                held.release();
            }
        }
    }
    let _restore = Restore(HELD.replace(Some(Held::default())));
    let out = f();
    let held = HELD.take().unwrap_or_default();
    (out, held)
}

/// Serializes tests that assert on global pool state (pool hits, exact
/// capacities, alloc-counter deltas) against each other. Cargo runs
/// same-binary tests in parallel; any test observing the shared pool
/// must hold this.
#[cfg(test)]
pub(crate) static TEST_POOL_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn shelf_indexing() {
        assert_eq!(shelf_of_capacity(1), 0);
        assert_eq!(shelf_of_capacity(2), 1);
        assert_eq!(shelf_of_capacity(3), 1);
        assert_eq!(shelf_of_capacity(4), 2);
        assert_eq!(shelf_for_request(1), 0);
        assert_eq!(shelf_for_request(3), 2);
        assert_eq!(shelf_for_request(4), 2);
        assert_eq!(shelf_for_request(5), 3);
    }

    #[test]
    fn take_put_roundtrip_reuses_capacity() {
        let _g = serial();
        clear();
        let buf = take_scratch(1000);
        assert_eq!(buf.len(), 1000);
        let cap = buf.capacity();
        assert!(cap >= 1000);
        put(buf);
        // Pool hit: 900 and 1000 both round up to the 1024 shelf. The
        // alloc counter is process-global (other tests bump it in
        // parallel), so assert reuse via the exact capacity instead.
        let again = take_scratch(900);
        assert_eq!(again.len(), 900);
        assert_eq!(again.capacity(), cap, "must reuse the pooled buffer");
        put(again);
    }

    #[test]
    fn miss_counts_as_alloc() {
        let _g = serial();
        clear();
        let before = data_allocs();
        let buf = take_scratch(77);
        assert!(data_allocs() > before);
        put(buf);
    }

    #[test]
    fn zeroed_clears_stale_contents() {
        let _g = serial();
        let mut buf = take_scratch(64);
        buf.fill(3.5);
        put(buf);
        let z = take_zeroed(64);
        assert!(z.iter().all(|&v| v == 0.0));
        put(z);
    }

    #[test]
    fn zero_len_request_is_free() {
        let buf = take_scratch(0);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 0, "zero-len take must not allocate");
    }

    #[test]
    fn aligned_take_is_64_byte_aligned() {
        let _g = serial();
        clear();
        // Fresh allocation (miss) and pooled reuse (hit) must both land
        // on a cache-line boundary, at every size class the kernels use.
        for len in [1usize, 16, 37, 256, 4096, 9 * 256] {
            let buf = take_aligned(len);
            assert_eq!(buf.len(), len);
            assert_eq!(
                buf.as_slice().as_ptr() as usize % 64,
                0,
                "fresh aligned buffer (len {len}) off alignment"
            );
            put_aligned(buf);
            let again = take_aligned(len);
            assert_eq!(
                again.as_slice().as_ptr() as usize % 64,
                0,
                "reused aligned buffer (len {len}) off alignment"
            );
            put_aligned(again);
        }
        clear();
    }

    #[test]
    fn aligned_roundtrip_reuses_capacity() {
        let _g = serial();
        clear();
        let buf = take_aligned(1000);
        let cap = buf.capacity();
        assert!(cap >= 1000);
        put_aligned(buf);
        // 900 and 1000 floats round to the same lane shelf.
        let again = take_aligned(900);
        assert_eq!(again.len(), 900);
        assert_eq!(again.capacity(), cap, "must reuse the pooled buffer");
        put_aligned(again);
        clear();
    }

    #[test]
    fn aligned_resize_tracks_len_and_zeroes_new_lanes() {
        let _g = serial();
        let mut buf = take_aligned(16);
        buf.as_mut_slice().fill(7.0);
        buf.resize(48);
        assert_eq!(buf.len(), 48);
        assert!(buf[..16].iter().all(|&v| v == 7.0));
        assert!(buf[16..].iter().all(|&v| v == 0.0), "new lanes must zero");
        put_aligned(buf);
    }

    #[test]
    fn aligned_zero_len_request_is_free() {
        let buf = take_aligned(0);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 0, "zero-len take must not allocate");
    }

    #[test]
    fn a_held_lane_draws_its_own_peak_whatever_the_interleaving() {
        let _g = serial();
        clear();
        // Two lanes each hold two 100-float buffers at a time, then put
        // them back and take them again. Run one after the other, a
        // lane that put straight onto the shelves would hand its
        // buffers to the next; held, each lane draws its own two.
        let lane = || {
            hold(|| {
                let shelved = pooled_buffers();
                for _ in 0..3 {
                    let (a, b) = (take_scratch(100), take_scratch(100));
                    put(a);
                    put(b);
                }
                let left = shelved.saturating_sub(2);
                assert_eq!(pooled_buffers(), left, "a held put reached the shelves");
            })
            .1
        };
        let before = data_allocs();
        let (first, second) = (lane(), lane());
        assert!(data_allocs() - before >= 4, "each lane drew its own pair");
        first.release();
        second.release();
        assert_eq!(pooled_buffers(), 4);
        // Released, the four serve the same two lanes: a miss would
        // leave a fifth buffer on the shelves.
        let (first, second) = (lane(), lane());
        first.release();
        second.release();
        assert_eq!(pooled_buffers(), 4, "warm lanes must not miss");
        clear();
    }

    #[test]
    fn a_panicking_lane_returns_its_stash_to_the_shelves() {
        let _g = serial();
        clear();
        let caught = std::panic::catch_unwind(|| {
            hold(|| {
                put(take_scratch(100));
                panic!("lane failed");
            })
        });
        assert!(caught.is_err());
        assert_eq!(pooled_buffers(), 1, "the stash went back");
        // This thread is no longer held: a put reaches the shelves.
        put(take_scratch(100));
        assert_eq!(pooled_buffers(), 1);
        clear();
    }

    #[test]
    fn shelf_cap_bounds_retention() {
        let _g = serial();
        clear();
        for _ in 0..(MAX_PER_SHELF + 8) {
            put(Vec::with_capacity(256));
        }
        assert!(pooled_buffers() <= MAX_PER_SHELF);
        clear();
    }
}

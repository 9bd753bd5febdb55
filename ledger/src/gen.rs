//! Seeded workload generators and the two schedulers (whole passes,
//! open-loop due times). The program under test only ever sees what
//! these produce; the same seed gives the same bytes.

use adarnet_cfd::CaseConfig;
use adarnet_dataset::TestCase;
use adarnet_tensor::Tensor;

/// SplitMix64: small, seedable, and good enough for input noise.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) / (1u64 << 23) as f32 - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Relative amplitude of the noise that makes a field new to the
/// patch cache: a hundred-thousandth of each channel's scale over the
/// pool (its range or its largest magnitude, whichever is larger, so
/// the noise is never lost below a value's last bit). Every byte of every patch key changes, yet a patch's score
/// almost never crosses a bin threshold, so every seed decodes the same
/// patches at the same resolutions; at a thousandth the seeds' work
/// differed by a tenth.
pub const NOISE: f32 = 1e-5;

/// Per-channel scale over a pool of `(4, H, W)` fields: the larger of
/// `max - min` and `max |v|`.
pub fn channel_spans(pool: &[Tensor<f32>]) -> [f32; 4] {
    let mut lo = [f32::INFINITY; 4];
    let mut hi = [f32::NEG_INFINITY; 4];
    for field in pool {
        let plane = field.dim(1) * field.dim(2);
        for c in 0..4 {
            for &v in &field.as_slice()[c * plane..(c + 1) * plane] {
                lo[c] = lo[c].min(v);
                hi[c] = hi[c].max(v);
            }
        }
    }
    std::array::from_fn(|c| {
        (hi[c] - lo[c])
            .max(hi[c].abs())
            .max(lo[c].abs())
            .max(f32::MIN_POSITIVE)
    })
}

/// A copy of `field` with uniform noise of `NOISE * scale` per channel.
pub fn perturb(field: &Tensor<f32>, spans: &[f32; 4], rng: &mut Rng) -> Tensor<f32> {
    let mut out = field.clone();
    let plane = field.dim(1) * field.dim(2);
    for (c, span) in spans.iter().enumerate() {
        for v in &mut out.as_mut_slice()[c * plane..(c + 1) * plane] {
            *v += NOISE * span * rng.next_signed();
        }
    }
    out
}

/// The run's base fields: the dataset families' synthetic LR fields
/// (what `adarnet_serve::field_pool` serves), each perturbed once by
/// the run seed. Returns the fields and the channel spans used.
pub fn seeded_pool(count: usize, h: usize, w: usize, seed: u64) -> (Vec<Tensor<f32>>, [f32; 4]) {
    let base = adarnet_serve::field_pool(count, h, w, 0);
    assert_eq!(base.len(), count, "dataset generator returned a short pool");
    let spans = channel_spans(&base);
    let mut rng = Rng::new(seed, 1);
    let pool = base.iter().map(|f| perturb(f, &spans, &mut rng)).collect();
    (pool, spans)
}

/// A Table 1 case at the ledger's scale: wall-bounded domains shortened
/// as the repository's quick scale does, so the flow develops inside
/// the iteration budget.
pub fn scaled_case(tc: TestCase) -> CaseConfig {
    let mut case = tc.config();
    match tc {
        TestCase::ChannelInt | TestCase::ChannelExt => case.lx = 1.0,
        TestCase::FlatPlateInt | TestCase::FlatPlateExt => case.lx = 2.5,
        _ => {}
    }
    case
}

/// The seven Table 1 cases in a seeded order. The seed moves nothing
/// else: a thousandth on the inflow speed was enough to flip a patch's
/// refinement level and change a case's cost by a fifth.
pub fn seeded_cases(seed: u64) -> Vec<(TestCase, CaseConfig)> {
    let mut rng = Rng::new(seed, 2);
    let mut cases: Vec<(TestCase, CaseConfig)> = TestCase::ALL
        .iter()
        .map(|&tc| (tc, scaled_case(tc)))
        .collect();
    for i in (1..cases.len()).rev() {
        cases.swap(i, rng.below(i + 1));
    }
    cases
}

/// Traffic class of one open-loop request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Interactive lane, a field the cache has seen.
    Hot,
    /// Bulk lane, a perturbed field every patch of which is new.
    Cold,
}

/// Requests per cold request in the open mix.
pub const MIX_BLOCK: usize = 10;

/// Class sequence of the open mix: exactly one cold request in every
/// block of [`MIX_BLOCK`], at a seeded position, so the cold share is
/// exact and two cold requests are never closer than the seed allows.
pub fn class_sequence(seed: u64, n: usize) -> Vec<Class> {
    let mut rng = Rng::new(seed, 3);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let cold_at = rng.below(MIX_BLOCK);
        for k in 0..MIX_BLOCK {
            out.push(if k == cold_at {
                Class::Cold
            } else {
                Class::Hot
            });
        }
    }
    out.truncate(n);
    out
}

/// Run whole passes until their durations sum to `budget_s` or more.
/// `pass` runs one pass over the whole pool and returns its seconds.
/// Cutting a run by time alone leaves a different mix of inputs in
/// each run; whole passes keep it identical.
pub fn whole_passes(budget_s: f64, mut pass: impl FnMut(usize) -> f64) -> usize {
    let mut spent = 0.0;
    let mut passes = 0;
    while passes == 0 || spent < budget_s {
        spent += pass(passes);
        passes += 1;
    }
    passes
}

/// Time source of the open-loop generator (a fake one in the tests).
pub trait Clock {
    /// Seconds since the schedule started.
    fn now_s(&self) -> f64;
    /// Block until `t_s`; return at once if it has passed.
    fn sleep_until(&self, t_s: f64);
}

/// When one open-loop request was due and when it was really sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dispatch {
    /// Scheduled send time, seconds.
    pub due_s: f64,
    /// Actual send time, seconds.
    pub sent_s: f64,
}

impl Dispatch {
    /// How late the generator ran for this request.
    pub fn lateness_s(&self) -> f64 {
        self.sent_s - self.due_s
    }

    /// Latency as the user saw it: from the due time, so the wait a
    /// stalled generator imposes on later requests is counted.
    pub fn latency_from_due_s(&self, service_s: f64) -> f64 {
        self.lateness_s() + service_s
    }
}

/// Fixed-rate due times: request `k` is due at `k / rate`.
pub fn fixed_rate_schedule(rate_per_s: f64, n: usize) -> Vec<f64> {
    (0..n).map(|k| k as f64 / rate_per_s).collect()
}

/// Send request `k` at `due[k]`, never earlier and never skipped: a
/// send that stalls makes every later request late instead of thinning
/// the load.
pub fn drive_schedule<C: Clock>(
    clock: &C,
    due: &[f64],
    mut send: impl FnMut(usize),
) -> Vec<Dispatch> {
    due.iter()
        .enumerate()
        .map(|(k, &due_s)| {
            clock.sleep_until(due_s);
            let sent_s = clock.now_s();
            send(k);
            Dispatch { due_s, sent_s }
        })
        .collect()
}

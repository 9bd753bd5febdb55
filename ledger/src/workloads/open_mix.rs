//! `serve_open_mix`: the scheduler under arrivals. One generator thread
//! submits in process on a fixed schedule, whatever the server's
//! backlog, and one collector thread takes the replies; nine requests
//! in ten are hot repeats on the interactive lane and one is a cold
//! (perturbed) field on the bulk lane. It is the only workload where
//! queueing, lanes and batch assembly do work, and it mixes the cache
//! and decoder uses that `net_hit` and `net_miss` keep apart.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use adarnet_serve::{Priority, ResponseKind, ServeResponse, SubmitOptions};
use adarnet_tensor::Tensor;

use super::{
    decide, shutdown_conserving, start_serve, CacheWindow, Decision, Measured, ServeStack,
};
use crate::gen::{
    class_sequence, drive_schedule, fixed_rate_schedule, perturb, seeded_pool, Class, Clock, Rng,
};
use crate::stats::{percentile, sorted};

/// Field height.
pub const FIELD_H: usize = 32;
/// Field width.
pub const FIELD_W: usize = 64;
/// Patch extent.
pub const PATCH: usize = 8;
/// Hot fields.
pub const POOL: usize = 21;
/// Arrival rate, requests per second.
pub const RATE: f64 = 40.0;
/// Latency limit from the due time, ms; a reply beyond it is a failed
/// operation. A second is a backlog of forty requests: at a fifth
/// utilisation only a growing queue gets there, while the stalls of a
/// few hundred milliseconds this host has a few times an hour do not.
pub const LIMIT_MS: f64 = 1000.0;
/// Operations per throughput window: two seconds of arrivals.
pub const OPS_PER_WINDOW: usize = 80;
/// Rng stream of the cold field sent as request `k`.
const COLD_STREAM: u64 = 2000;
/// Closed-loop warm-up passes of each class in set-up.
const WARMUP_PASSES: usize = 2;
/// First request number of the warm-up's cold fields.
const WARMUP_BASE: usize = 1 << 40;

/// Wall clock of the generator.
struct RealClock(Instant);

impl Clock for RealClock {
    fn now_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t_s: f64) {
        let now = self.now_s();
        if t_s > now {
            std::thread::sleep(Duration::from_secs_f64(t_s - now));
        }
    }
}

/// One request of the open loop, as generator and collector saw it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Position in the schedule.
    pub k: usize,
    /// Traffic class.
    pub class: Class,
    /// Scheduled send time, seconds from the start.
    pub due_s: f64,
    /// Actual send time.
    pub sent_s: f64,
    /// When `submit_with` returned.
    pub submitted_s: f64,
    /// Server-side latency from submission to reply, seconds.
    pub service_s: f64,
    /// Whether the reply was a full inference.
    pub full: bool,
    /// The reply's decision map.
    pub decision: Decision,
}

impl Record {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.sent_s - self.due_s + self.service_s) * 1e3
    }
}

/// The started stack and one seed's inputs.
pub struct OpenMix {
    stack: ServeStack,
    seed: u64,
    pool: Vec<Tensor<f32>>,
    spans: [f32; 4],
    expected: Vec<Decision>,
    submitted: u64,
}

impl OpenMix {
    /// Start the stack on the seed's hot fields and run two cold and
    /// two hot closed-loop passes, so the cache holds every hot patch
    /// and the worker's buffers are warm.
    pub fn setup(seed: u64) -> OpenMix {
        let (pool, spans) = seeded_pool(POOL, FIELD_H, FIELD_W, seed);
        let stack = start_serve(PATCH);
        let expected = pool.iter().map(|f| decide(&stack.engine, f)).collect();
        let mut mix = OpenMix {
            stack,
            seed,
            pool,
            spans,
            expected,
            submitted: 0,
        };
        for pass in 0..WARMUP_PASSES {
            for idx in 0..POOL {
                // Request numbers no schedule reaches, so their noise
                // is never sent again.
                let cold = mix.cold_field(WARMUP_BASE + pass * POOL + idx);
                let reply = mix
                    .stack
                    .server
                    .submit_wait_with(cold, options(Class::Cold));
                reply.prediction.recycle();
            }
        }
        for _ in 0..WARMUP_PASSES {
            for idx in 0..POOL {
                let reply = mix
                    .stack
                    .server
                    .submit_wait_with(mix.pool[idx].clone(), options(Class::Hot));
                reply.prediction.recycle();
            }
        }
        mix.submitted += (2 * WARMUP_PASSES * POOL) as u64;
        mix
    }

    /// The live stack.
    pub fn stack(&self) -> &ServeStack {
        &self.stack
    }

    /// The seed's hot fields.
    pub fn pool(&self) -> &[Tensor<f32>] {
        &self.pool
    }

    /// The cold field of request `k`: always the first base field,
    /// under noise of its own. One base field keeps the cold requests'
    /// service times alike, so the tail percentile (which lies among
    /// them) reads queueing and not which field a seed happened to send
    /// cold.
    fn cold_field(&self, k: usize) -> Tensor<f32> {
        let mut rng = Rng::new(self.seed, COLD_STREAM.wrapping_add(k as u64));
        perturb(&self.pool[0], &self.spans, &mut rng)
    }

    fn field(&self, k: usize, class: Class) -> Tensor<f32> {
        match class {
            Class::Hot => self.pool[k % POOL].clone(),
            Class::Cold => self.cold_field(k),
        }
    }

    /// Run the open loop for `seconds`: request `k` is due at
    /// `k / RATE` and is sent then or as soon after as the generator
    /// can, never dropped.
    pub fn run_schedule(&mut self, seconds: f64) -> Vec<Record> {
        let n = (RATE * seconds).round().max(1.0) as usize;
        let classes = class_sequence(self.seed, n);
        let due = fixed_rate_schedule(RATE, n);
        let (tx, rx) = mpsc::channel::<(usize, f64, mpsc::Receiver<ServeResponse>)>();
        let this = &*self;
        let (dispatches, replies) = std::thread::scope(|scope| {
            let (due, classes) = (&due, &classes);
            let generator = scope.spawn(move || {
                let clock = RealClock(Instant::now());
                let mut next = Some(this.field(0, classes[0]));
                drive_schedule(&clock, due, |k| {
                    let field = next.take().expect("prepared after the previous send");
                    let reply = this.stack.server.submit_with(field, options(classes[k]));
                    let _ = tx.send((k, clock.now_s(), reply));
                    if k + 1 < n {
                        next = Some(this.field(k + 1, classes[k + 1]));
                    }
                })
            });
            let collector = scope.spawn(move || {
                let mut replies = Vec::with_capacity(n);
                for (k, submitted_s, reply) in rx.iter().take(n) {
                    let reply = reply.recv().expect("the server answers every request");
                    let decision = Decision {
                        bins: reply.prediction.binning.bin_of_patch.clone(),
                        scores: reply.prediction.scores.as_slice().to_vec(),
                    };
                    let full = reply.kind == ResponseKind::Full;
                    let service_s = reply.latency.as_secs_f64();
                    reply.prediction.recycle();
                    replies.push((k, submitted_s, service_s, full, decision));
                }
                replies
            });
            (
                generator.join().expect("generator panicked"),
                collector.join().expect("collector panicked"),
            )
        });
        self.submitted += n as u64;
        replies
            .into_iter()
            .map(|(k, submitted_s, service_s, full, decision)| Record {
                k,
                class: classes[k],
                due_s: dispatches[k].due_s,
                sent_s: dispatches[k].sent_s,
                submitted_s,
                service_s,
                full,
                decision,
            })
            .collect()
    }

    /// Whether a reply carries the decision the engine makes in
    /// process for the same field.
    pub fn decision_matches(&self, r: &Record) -> bool {
        match r.class {
            Class::Hot => r.decision == self.expected[r.k % POOL],
            Class::Cold => r.decision == decide(&self.stack.engine, &self.cold_field(r.k)),
        }
    }

    /// The untraced measurement: latency is timed from the due time,
    /// and an operation is good when it is a full inference inside
    /// [`LIMIT_MS`] with the right decision.
    pub fn measure(&mut self, seconds: f64) -> Measured {
        let lookups = CacheWindow::open(self.stack.server.cache());
        let records = self.run_schedule(seconds);
        let mut out = Measured::default();
        let mut lateness_ms = Vec::with_capacity(records.len());
        for r in &records {
            let right = self.decision_matches(r);
            if !right {
                out.violation(format!(
                    "request {}: reply differs from the in-process decision",
                    r.k
                ));
            }
            let good = r.full && right && r.latency_ms() <= LIMIT_MS;
            out.push(r.latency_ms(), r.sent_s + r.service_s, good);
            lateness_ms.push((r.sent_s - r.due_s) * 1e3);
        }
        let lateness = sorted(&lateness_ms);
        let cold = records.iter().filter(|r| r.class == Class::Cold).count();
        out.notes.push(format!(
            "{} requests at {RATE}/s ({cold} cold on the bulk lane), fields {FIELD_H}x{FIELD_W}, patches {PATCH}x{PATCH}, limit {LIMIT_MS} ms; generator lateness p99 {:.3} ms max {:.3} ms; cache hit share {:.4}; device {} precision {}",
            records.len(),
            percentile(&lateness, 99.0),
            lateness[lateness.len() - 1],
            lookups.hit_share(self.stack.server.cache()),
            self.stack.engine.backend_name(),
            self.stack.engine.precision().name()
        ));
        out
    }

    /// Shut the stack down; every request submitted must be accounted
    /// for as completed or shed.
    pub fn finish(self) -> Vec<String> {
        shutdown_conserving(self.stack.server, self.submitted)
    }
}

fn options(class: Class) -> SubmitOptions {
    SubmitOptions {
        priority: match class {
            Class::Hot => Priority::Interactive,
            Class::Cold => Priority::Bulk,
        },
        ..SubmitOptions::default()
    }
}

//! `net_miss` and `net_hit`: the serving stack over loopback TCP
//! (`NetClient` → `NetServer` → `Server` → shared engine and patch
//! cache). The two differ only in their inputs: `net_miss` perturbs
//! every field it sends, so every patch key is new and the decoder
//! runs; `net_hit` repeats the base fields, so the decoder is bypassed
//! and the scorer, patch assembly, cache and codec are what is left.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use adarnet_core::engine::InferenceEngine;
use adarnet_core::network::ForwardPlan;
use adarnet_net::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response, Status,
};
use adarnet_net::{read_frame, write_frame, NetClient, NetServer};
use adarnet_serve::{PatchKey, Priority, Server};
use adarnet_tensor::Tensor;

use super::{
    decide, shutdown_conserving, start_serve, CacheWindow, Decision, Measured, ServeStack,
};
use crate::gen::{perturb, seeded_pool, whole_passes, Rng};
use crate::spans::{Layer, Recorder};

/// Field height (the paper's LR extent).
pub const FIELD_H: usize = 64;
/// Field width.
pub const FIELD_W: usize = 256;
/// Patch extent (the paper's).
pub const PATCH: usize = 16;
/// Base fields. Odd, and runs are whole passes, so every run measures
/// the same mix; an even pool cut by time moved the median by a fifth.
pub const POOL: usize = 13;
/// Connections of `net_hit`.
pub const HIT_CONNECTIONS: usize = 2;
/// Rng stream of the field sent as operation `k` of `net_miss`.
const SEND_STREAM: u64 = 1000;
/// Operation numbers the traced run's live and replayed passes use, so
/// that none of their fields repeats one already sent.
const LIVE_STREAM: usize = 500_000;
/// See [`LIVE_STREAM`].
const REPLAY_STREAM: usize = 1_000_000;

/// Which of the two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every send perturbed: cache hit share 0.
    Miss,
    /// Base fields repeated: cache hit share near 1.
    Hit,
}

/// A running stack plus the inputs and expected outputs of one seed.
pub struct NetStack {
    mode: Mode,
    seed: u64,
    server: Arc<Server>,
    net: NetServer,
    addr: SocketAddr,
    engine: Arc<InferenceEngine>,
    cache_generation: u64,
    pool: Vec<Tensor<f32>>,
    spans: [f32; 4],
    expected: Vec<Decision>,
    sent: u64,
}

/// The request the ledger sends for `field`: standard lane, tenant 0,
/// no deadline, default precision.
pub fn standard_request(request_id: u64, field: Tensor<f32>) -> Request {
    Request {
        request_id,
        tenant: 0,
        priority: Priority::Standard,
        deadline_ms: 0,
        trace_id: 0,
        precision: None,
        field,
    }
}

/// The full response the server builds from a plan's decision map.
pub fn full_response(request_id: u64, engine: &InferenceEngine, plan: &ForwardPlan) -> Response {
    Response {
        request_id,
        status: Status::Full,
        reject: None,
        reject_code: 0,
        priority: Priority::Standard,
        generation: 1,
        latency_ns: 0,
        trace_id: 0,
        precision: Some(engine.precision()),
        npy: plan.layout.npy as u16,
        npx: plan.layout.npx as u16,
        bins: plan.binning.bin_of_patch.clone(),
        scores: plan.scores.as_slice().to_vec(),
    }
}

/// One request on the standard lane; its latency in ms and the reply.
fn request(client: &mut NetClient, field: Tensor<f32>) -> (f64, Option<Response>) {
    let started = Instant::now();
    let resp = client.infer(field, Priority::Standard, 0, 0);
    (started.elapsed().as_secs_f64() * 1e3, resp.ok())
}

fn full_and_equal(resp: &Response, want: &Decision) -> bool {
    resp.status == Status::Full && resp.bins == want.bins && resp.scores == want.scores
}

impl NetStack {
    /// Build the model and checkpoint, start the serve stack (one
    /// worker, default cache, default device and precision) behind a
    /// loopback listener, generate the seed's base fields and their
    /// expected decisions, and send each base field once.
    pub fn setup(mode: Mode, seed: u64) -> NetStack {
        let (pool, spans) = seeded_pool(POOL, FIELD_H, FIELD_W, seed);
        let ServeStack {
            server,
            engine,
            cache_generation,
        } = start_serve(PATCH);
        let net = NetServer::start("127.0.0.1:0", server.clone()).expect("loopback bind");
        let addr = net.local_addr();
        let expected = pool.iter().map(|f| decide(&engine, f)).collect();
        let mut stack = NetStack {
            mode,
            seed,
            server,
            net,
            addr,
            cache_generation,
            engine,
            pool,
            spans,
            expected,
            sent: 0,
        };
        let mut client = NetClient::connect(addr).expect("loopback connect");
        for field in &stack.pool {
            request(&mut client, field.clone());
        }
        stack.sent += POOL as u64;
        stack
    }

    /// Device and precision the stack runs at (recorded, not set).
    pub fn backend(&self) -> String {
        format!(
            "device {} precision {}",
            self.engine.backend_name(),
            self.engine.precision().name()
        )
    }

    /// Operations per throughput window: a whole number of passes.
    pub fn ops_per_window(&self) -> usize {
        match self.mode {
            Mode::Miss => POOL,
            Mode::Hit => 16 * POOL,
        }
    }

    /// The field sent as operation `k` of `net_miss`.
    fn miss_field(&self, k: usize) -> Tensor<f32> {
        let mut rng = Rng::new(self.seed, SEND_STREAM + k as u64);
        perturb(&self.pool[k % POOL], &self.spans, &mut rng)
    }

    /// Closed loop over whole passes of the pool until `seconds` have
    /// gone: one connection for `net_miss`, two for `net_hit`. Every
    /// response's bins and scores must equal the in-process decision
    /// for the field sent.
    pub fn measure(&mut self, seconds: f64) -> Measured {
        let lookups = CacheWindow::open(self.server.cache());
        let mut out = match self.mode {
            Mode::Miss => self.measure_miss(seconds),
            Mode::Hit => self.measure_hit(seconds),
        };
        self.sent += out.attempted;
        out.notes.push(format!(
            "{} ops over {POOL} fields of {FIELD_H}x{FIELD_W}, patches {PATCH}x{PATCH}; cache hit share {:.4} ({} entries); {}",
            out.attempted,
            lookups.hit_share(self.server.cache()),
            self.server.cache().len(),
            self.backend()
        ));
        out
    }

    fn measure_miss(&self, seconds: f64) -> Measured {
        let mut out = Measured::default();
        let mut got: Vec<Option<Response>> = Vec::new();
        let mut client = NetClient::connect(self.addr).expect("loopback connect");
        let t0 = Instant::now();
        whole_passes(seconds, |pass| {
            let started = Instant::now();
            for idx in 0..POOL {
                let (latency_ms, resp) = request(&mut client, self.miss_field(pass * POOL + idx));
                out.push(latency_ms, t0.elapsed().as_secs_f64(), true);
                got.push(resp);
            }
            started.elapsed().as_secs_f64()
        });
        // Checked after the clock stops: the expected decision for a
        // perturbed field costs a scorer pass.
        for (k, resp) in got.iter().enumerate() {
            let want = decide(&self.engine, &self.miss_field(k));
            let good = resp.as_ref().is_some_and(|r| full_and_equal(r, &want));
            if !good {
                out.completions[k].good = false;
                out.failed += 1;
                out.violation(format!(
                    "net_miss op {k}: response differs from the in-process decision"
                ));
            }
        }
        out
    }

    fn measure_hit(&self, seconds: f64) -> Measured {
        let barrier = Barrier::new(HIT_CONNECTIONS);
        let t0 = Instant::now();
        let parts: Vec<Measured> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..HIT_CONNECTIONS)
                .map(|conn| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut out = Measured::default();
                        let mut client = NetClient::connect(self.addr).expect("loopback connect");
                        barrier.wait();
                        whole_passes(seconds, |_| {
                            let started = Instant::now();
                            for step in 0..POOL {
                                // Connections start half a pool apart.
                                let idx = (step + conn * POOL / HIT_CONNECTIONS) % POOL;
                                let (latency_ms, resp) =
                                    request(&mut client, self.pool[idx].clone());
                                let good = resp
                                    .as_ref()
                                    .is_some_and(|r| full_and_equal(r, &self.expected[idx]));
                                if !good {
                                    out.violation(format!(
                                        "net_hit field {idx}: response differs from the in-process decision"
                                    ));
                                }
                                out.push(latency_ms, t0.elapsed().as_secs_f64(), good);
                            }
                            started.elapsed().as_secs_f64()
                        });
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut out = Measured::default();
        for part in parts {
            out.latencies_ms.extend(part.latencies_ms);
            out.completions.extend(part.completions);
            out.attempted += part.attempted;
            out.failed += part.failed;
            out.violations.extend(part.violations);
        }
        out
    }

    /// Stop the listener and the serve stack; every request sent must
    /// be accounted for as completed or shed.
    pub fn finish(self) -> Vec<String> {
        self.net.shutdown();
        shutdown_conserving(self.server, self.sent)
    }

    /// Mean live operation time over one pass on one connection, seconds.
    pub fn live_pass(&mut self) -> f64 {
        let mut client = NetClient::connect(self.addr).expect("loopback connect");
        let mut total_ms = 0.0;
        for idx in 0..POOL {
            let field = match self.mode {
                Mode::Miss => self.miss_field(LIVE_STREAM + idx),
                Mode::Hit => self.pool[idx].clone(),
            };
            total_ms += request(&mut client, field).0;
        }
        self.sent += POOL as u64;
        total_ms / POOL as f64 / 1e3
    }

    /// One pass of the request path in process, with every call into a
    /// layer inside a span: the client's encode and framing, the
    /// server's decode, the body of `infer_cached` against the live
    /// stack's engine and patch cache, and the response's way back. Each
    /// field runs twice, first under a recorder that is off and then
    /// under `rec`, so that the host's drift over the pass cancels out
    /// of the difference. Returns the mean operation time traced and
    /// untraced, seconds.
    pub fn replay(&self, rec: &mut Recorder) -> (f64, f64) {
        let mut off = Recorder::off();
        let (mut on_s, mut off_s) = (0.0, 0.0);
        for idx in 0..POOL {
            let started = Instant::now();
            self.replay_op(&mut off, idx, 0);
            off_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            self.replay_op(rec, idx, 1);
            on_s += started.elapsed().as_secs_f64();
        }
        (on_s / POOL as f64, off_s / POOL as f64)
    }

    fn replay_op(&self, rec: &mut Recorder, idx: usize, round: usize) {
        let frozen = self.engine.frozen();
        let cache = self.server.cache();
        let bins = self.engine.config().bins;
        let field = match self.mode {
            Mode::Miss => self.miss_field(REPLAY_STREAM + round * POOL + idx),
            Mode::Hit => self.pool[idx].clone(),
        };
        rec.op("net_op", |rec| {
            let req = standard_request(idx as u64 + 1, field);
            let body = rec.span("encode_request", Layer::Net, || encode_request(&req));
            let mut wire = Vec::with_capacity(body.len() + 8);
            rec.span("write_frame", Layer::Net, || write_frame(&mut wire, &body))
                .expect("in-memory write");
            rec.count("request_bytes", wire.len() as u64);
            let body = rec
                .span("read_frame", Layer::Net, || {
                    read_frame(&mut wire.as_slice())
                })
                .expect("frame just written");
            let req = rec
                .span("decode_request", Layer::Net, || decode_request(&body))
                .expect("request just encoded");

            let normalized = rec.span("NormStats::normalize", Layer::Core, || {
                self.engine.norm().normalize(&req.field)
            });
            let plan = rec
                .span("FrozenAdarNet::try_plan", Layer::Core, || {
                    frozen.try_plan(&normalized)
                })
                .expect("generated fields have finite scores");
            normalized.recycle();
            let mut patches: Vec<Option<Tensor<f32>>> =
                (0..plan.layout.num_patches()).map(|_| None).collect();
            for bin in 0..bins {
                let mut owners: Vec<(usize, PatchKey)> = Vec::new();
                let mut inputs: Vec<Tensor<f32>> = Vec::new();
                for &pi in &plan.binning.groups[bin as usize] {
                    let dec_in = rec.span("ForwardPlan::decoder_input", Layer::Core, || {
                        plan.decoder_input(pi)
                    });
                    let key = rec.span("PatchKey::new", Layer::Serve, || {
                        PatchKey::new(self.cache_generation, bin, &dec_in)
                    });
                    match rec.span("PatchCache::get", Layer::Serve, || cache.get(&key)) {
                        Some(hit) => {
                            patches[pi] = Some(hit);
                            dec_in.recycle();
                        }
                        None => {
                            owners.push((pi, key));
                            inputs.push(dec_in);
                        }
                    }
                }
                if inputs.is_empty() {
                    continue;
                }
                let batch = rec.span("Tensor::pooled_stack", Layer::Tensor, || {
                    Tensor::pooled_stack(&inputs)
                });
                for dec_in in inputs {
                    dec_in.recycle();
                }
                let decoded = rec.scope("FrozenDecoder::forward", Layer::Nn, |rec| {
                    rec.count("bin", u64::from(bin));
                    rec.count("patches", owners.len() as u64);
                    frozen.decoder().forward(&batch)
                });
                batch.recycle();
                for (k, (pi, key)) in owners.into_iter().enumerate() {
                    let image = rec.span("Tensor::pooled_image", Layer::Tensor, || {
                        decoded.pooled_image(k)
                    });
                    rec.span("PatchCache::insert", Layer::Serve, || {
                        cache.insert(&key, image.clone())
                    });
                    patches[pi] = Some(image);
                }
                decoded.recycle();
            }

            let resp = full_response(req.request_id, &self.engine, &plan);
            let body = rec.span("encode_response", Layer::Net, || encode_response(&resp));
            let mut wire = Vec::with_capacity(body.len() + 8);
            rec.span("write_frame", Layer::Net, || write_frame(&mut wire, &body))
                .expect("in-memory write");
            let body = rec
                .span("read_frame", Layer::Net, || {
                    read_frame(&mut wire.as_slice())
                })
                .expect("frame just written");
            rec.span("decode_response", Layer::Net, || decode_response(&body))
                .expect("response just encoded");
            // As the live path leaves them: the prediction is
            // dropped with the reply, not returned to the pool.
            drop(patches);
            plan.aug.recycle();
        });
    }

    /// The live stack's serve handle.
    pub fn server(&self) -> &Server {
        &self.server
    }
}

//! Fixed per-layer probes: each times calls into one crate's public
//! functions on fixed, paper-shaped inputs, so the numbers compare
//! across workloads and across commits. They run in every traced run,
//! after the workload's own traced pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use adarnet_amr::{AmrDriver, CompositeField, PatchLayout, RefinementMap, Side};
use adarnet_cfd::{CaseConfig, CaseMesh, RansSolver, SolverConfig};
use adarnet_core::engine::InferenceEngine;
use adarnet_core::framework::{prediction_to_state, LrInput};
use adarnet_core::{run_amr_baseline, try_run_adarnet_case, Scorer};
use adarnet_dataset::{Sample, TestCase};
use adarnet_net::proto::{decode_request, decode_response, encode_request, encode_response};
use adarnet_net::{read_frame, write_frame, NetClient, NetServer};
use adarnet_nn::{bicubic_resize3, Conv2d, ConvTranspose2d, Initializer, Sequential};
use adarnet_serve::{infer_cached, PatchCache, PatchKey, Priority};
use adarnet_tensor::{Shape, Tensor};

use crate::gen::scaled_case;
use crate::spec::per_layer_name;
use crate::stats::median;
use crate::workloads::net::{full_response, standard_request};
use crate::workloads::{start_serve, ttc, ServeStack, MODEL_SEED};

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Paper-shaped field extent of the serving probes.
const H: usize = 64;
const W: usize = 256;
const PATCH: usize = 16;

/// Median seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn ramp(shape: Shape) -> Tensor<f32> {
    let n = shape.numel();
    Tensor::from_vec(shape, (0..n).map(|i| (i as f32 * 0.013).sin()).collect())
}

/// Ten independent 8-lane FMA chains: enough to cover the latency of
/// two FMA ports, so the loop runs at the core's FMA issue rate.
///
/// # Safety
/// The caller must have checked that the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let a = _mm256_set1_ps(0.999_999);
    let b = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_set1_ps(1.0); 10];
    for _ in 0..iters {
        for x in &mut acc {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    let mut sum = acc[0];
    for x in &acc[1..] {
        sum = _mm256_add_ps(sum, *x);
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` holds exactly the eight f32 the store writes.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
    lanes.iter().sum()
}

/// Peak f32 multiply-add rate of one core, GFLOP/s, with the 256-bit
/// vectors the nn crate's SIMD plane uses; a scalar multiply-add loop
/// where AVX2+FMA is missing.
fn fma_peak_gflops() -> f64 {
    const ITERS: u64 = 4_000_000;
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        let secs = time_median(5, || {
            // SAFETY: AVX2 and FMA were detected on this CPU just above.
            black_box(unsafe { fma_chains_avx2(black_box(ITERS)) });
        });
        return (ITERS * 10 * 8 * 2) as f64 / secs / 1e9;
    }
    let secs = time_median(5, || {
        let mut acc = [1.0f32; 16];
        for _ in 0..black_box(ITERS) {
            for x in &mut acc {
                *x = *x * 0.999_999 + 1e-7;
            }
        }
        black_box(acc);
    });
    (ITERS * 16 * 2) as f64 / secs / 1e9
}

/// Sustained triad bandwidth, GB/s computed as 12 bytes per element
/// (two reads, one write) over three 32 MiB arrays. The host reports a
/// last-level cache larger than that but shared with other tenants, so
/// this is what this tenant sustains, not a DRAM figure.
fn stream_gb_s() -> f64 {
    const N: usize = 8 << 20;
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let secs = (0..4)
        .map(|_| {
            let started = Instant::now();
            for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
                *x = *y + 3.0 * *z;
            }
            black_box(&a);
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (N * 12) as f64 / secs / 1e9
}

/// `(in, out, is_deconv)` of the decoder's six layers.
const DECODER_LAYERS: [(usize, usize, bool); 6] = [
    (7, 8, false),
    (8, 16, false),
    (16, 64, false),
    (64, 64, true),
    (64, 16, true),
    (16, 4, true),
];

fn host(out: &mut Metrics) {
    out.insert("host.fma_peak_gflops", fma_peak_gflops());
    out.insert("host.stream_gb_s", stream_gb_s());
}

fn tensor_and_nn(out: &mut Metrics) {
    // What one 64x256 request does outside the decoder: cut the
    // augmented field into its 64 patches and stack them.
    let aug = ramp(Shape::d3(5, H, W));
    let secs = time_median(20, || {
        let patches: Vec<Tensor<f32>> = (0..(H / PATCH) * (W / PATCH))
            .map(|i| {
                let (py, px) = (i / (W / PATCH), i % (W / PATCH));
                aug.pooled_extract_patch(py * PATCH, px * PATCH, PATCH, PATCH)
            })
            .collect();
        let stacked = Tensor::pooled_stack(&patches);
        for p in patches {
            p.recycle();
        }
        black_box(&stacked);
        stacked.recycle();
    });
    out.insert("tensor.patch_stack_ms", secs * 1e3);

    let patch = ramp(Shape::d3(5, PATCH, PATCH));
    let secs = time_median(20, || {
        bicubic_resize3(&patch, PATCH * 8, PATCH * 8).recycle();
    });
    out.insert("nn.bicubic_ms", secs * 1e3);

    let scorer = Scorer::new(4, PATCH, PATCH, MODEL_SEED).freeze();
    let x = ramp(Shape::d4(1, 4, H, W));
    let secs = time_median(10, || {
        let o = scorer.forward(&x);
        o.scores.recycle();
        o.latent.recycle();
    });
    let scorer_flops = 18 * H * W * (4 * 8 + 8 * 16 + 16 * 16 + 16);
    out.insert("nn.scorer_gflops", scorer_flops as f64 / secs / 1e9);

    // The six decoder shapes, each frozen on its own, at the bin-0 and
    // bin-3 patch extents (16x16 in a batch of 16, 128x128 in a batch
    // of 2).
    for (bin, extent, batch, reps) in [(0, PATCH, 16, 20), (3, PATCH * 8, 2, 5)] {
        for (k, &(cin, cout, deconv)) in DECODER_LAYERS.iter().enumerate() {
            let seed = MODEL_SEED + 100 + k as u64;
            let net = if deconv {
                Sequential::new().push(ConvTranspose2d::new(
                    cin,
                    cout,
                    3,
                    Initializer::HeNormal,
                    seed,
                ))
            } else {
                Sequential::new().push(Conv2d::new(cin, cout, 3, Initializer::HeNormal, seed))
            }
            .freeze();
            let x = ramp(Shape::d4(batch, cin, extent, extent));
            let secs = time_median(reps, || net.infer(&x).recycle());
            let flops = 18 * cin * cout * extent * extent * batch;
            let name = per_layer_name(&format!("nn.dec_l{}_bin{bin}_gflops", k + 1));
            out.insert(name, flops as f64 / secs / 1e9);
        }
    }
    out.insert(
        "nn.roof_share_l4_bin3",
        out["nn.dec_l4_bin3_gflops"] / out["host.fma_peak_gflops"],
    );
}

fn core(out: &mut Metrics, engine: &InferenceEngine, field: &Tensor<f32>) {
    let frozen = engine.frozen();
    let secs = time_median(20, || engine.norm().normalize(field).recycle());
    out.insert("core.normalize_ms", secs * 1e3);

    let normalized = engine.norm().normalize(field);
    let secs = time_median(10, || {
        let plan = frozen.try_plan(&normalized).expect("finite scores");
        plan.aug.recycle();
        plan.scores.recycle();
    });
    out.insert("core.plan_ms", secs * 1e3);

    let plan = frozen.try_plan(&normalized).expect("finite scores");
    let n_patches = plan.layout.num_patches();
    let secs = time_median(10, || {
        for pi in 0..n_patches {
            plan.decoder_input(pi).recycle();
        }
    });
    out.insert("core.decoder_input_ms", secs * 1e3);

    // `infer` against the sum of its parts, in alternation so that the
    // host's drift cancels out of the difference.
    let run_parts = || {
        let normalized = engine.norm().normalize(field);
        let plan = frozen.try_plan(&normalized).expect("finite scores");
        normalized.recycle();
        for group in plan.binning.groups.iter().filter(|g| !g.is_empty()) {
            let inputs: Vec<Tensor<f32>> = group.iter().map(|&pi| plan.decoder_input(pi)).collect();
            let batch = Tensor::pooled_stack(&inputs);
            for t in inputs {
                t.recycle();
            }
            let decoded = frozen.decoder().forward(&batch);
            batch.recycle();
            for k in 0..group.len() {
                decoded.pooled_image(k).recycle();
            }
            decoded.recycle();
        }
        plan.aug.recycle();
        plan.scores.recycle();
    };
    let (mut whole, mut parts) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let started = Instant::now();
        engine.infer(field).expect("finite scores").recycle();
        whole.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        run_parts();
        parts.push(started.elapsed().as_secs_f64());
    }
    let (whole, parts) = (median(&whole), median(&parts));
    out.insert("core.infer_residual_share", (whole - parts) / whole);

    let prediction = engine.infer(field).expect("finite scores");
    let max_level = engine.config().bins - 1;
    let secs = time_median(5, || {
        black_box(prediction_to_state(&prediction, engine.norm(), max_level));
    });
    out.insert("core.prediction_to_state_ms", secs * 1e3);
    prediction.recycle();
    plan.aug.recycle();
    plan.scores.recycle();
    normalized.recycle();
}

fn short_channel() -> CaseConfig {
    scaled_case(TestCase::ChannelInt)
}

/// A fixed composite mesh on the `ttc_capped` layout: levels 0..=3 in
/// turn over the patches.
fn mixed_map(layout: PatchLayout) -> RefinementMap {
    let levels = (0..layout.num_patches()).map(|i| (i % 4) as u8).collect();
    RefinementMap::from_levels(layout, levels, 3)
}

fn dataset_and_training(out: &mut Metrics) -> Vec<Sample> {
    let case = short_channel();
    let secs = time_median(5, || {
        black_box(adarnet_dataset::synthesize(&case, H, W));
    });
    out.insert("dataset.synthesize_ms", secs * 1e3);

    let train = ttc::training_set();
    let mut trainer = ttc::trainer(&train);
    // The first step of the recipe, buffers cold, as set-up pays it.
    let started = Instant::now();
    trainer.train_sample(&train[0]);
    out.insert("core.train_step_ms", started.elapsed().as_secs_f64() * 1e3);
    train
}

fn cfd_and_amr(out: &mut Metrics, train: &[Sample]) {
    let layout = ttc::layout();
    let uniform = RefinementMap::uniform(layout, 0, 3);
    let mixed = mixed_map(layout);
    let cylinder = CaseConfig::cylinder(1e5);
    let secs = time_median(5, || {
        black_box(CaseMesh::new(cylinder.clone(), mixed.clone()));
    });
    out.insert("cfd.mesh_build_ms", secs * 1e3);

    for (name, map, steps) in [
        ("cfd.mcell_updates_s_uniform", &uniform, 400u64),
        ("cfd.mcell_updates_s_composite", &mixed, 40),
    ] {
        let mesh = CaseMesh::new(short_channel(), map.clone());
        let cells = mesh.active_cells() as f64;
        let mut solver = RansSolver::new(mesh, ttc::lr_cfg());
        solver.step();
        let started = Instant::now();
        for _ in 0..steps {
            black_box(solver.step());
        }
        let secs = started.elapsed().as_secs_f64();
        out.insert(name, cells * steps as f64 / secs / 1e6);
    }

    let field = CompositeField::constant(&mixed, 1.0);
    let secs = time_median(10, || {
        for py in 0..layout.npy {
            for px in 0..layout.npx {
                for side in Side::ALL {
                    black_box(field.ghost_line(py, px, side));
                }
            }
        }
    });
    out.insert("amr.ghost_sweep_us", secs * 1e6);
    let coarse = CompositeField::constant(&RefinementMap::uniform(layout, 1, 3), 1.0);
    let secs = time_median(5, || {
        black_box(coarse.project_to(&mixed));
    });
    out.insert("amr.project_ms", secs * 1e3);

    // The paper's denominator on one case: the iterative
    // solve/assess/refine loop under the same tolerance, each round
    // capped at 300 iterations; beside it the
    // one-shot path on the same case with the same untrained model.
    let case = short_channel();
    let round_cfg = SolverConfig {
        max_iters: BASELINE_ROUND_CAP,
        ..ttc::lr_cfg()
    };
    let driver = AmrDriver {
        max_level: 3,
        theta: 0.5,
        max_rounds: BASELINE_ROUNDS,
        balance_jump: Some(1),
        ..AmrDriver::default()
    };
    let started = Instant::now();
    let baseline = run_amr_baseline(&case, layout, round_cfg, driver);
    let baseline_s = started.elapsed().as_secs_f64();
    out.insert("amr.baseline_s", baseline_s);
    out.insert("amr.baseline_iters", baseline.itc() as f64);

    let untrained = ttc::trainer(train);
    let started = Instant::now();
    let mut lr_solver = RansSolver::new(CaseMesh::new(case.clone(), uniform), ttc::lr_cfg());
    let lr = lr_solver.solve_to_convergence();
    let one_shot = try_run_adarnet_case(
        &untrained.model,
        &untrained.norm,
        &case,
        &lr_solver.state.to_tensor(0),
        LrInput {
            seconds: lr.seconds,
            iterations: lr.iterations,
        },
        ttc::warm_cfg(),
    );
    black_box(one_shot.is_ok());
    out.insert(
        "amr.speedup_x",
        baseline_s / started.elapsed().as_secs_f64(),
    );
}

/// Iteration cap of each round of the AMR baseline probe.
const BASELINE_ROUND_CAP: u64 = 300;
/// Rounds of the AMR baseline probe.
const BASELINE_ROUNDS: usize = 3;

fn serve_and_net(out: &mut Metrics, stack: ServeStack, field: &Tensor<f32>) {
    let ServeStack {
        server,
        engine,
        cache_generation,
    } = stack;
    let frozen = engine.frozen();

    // Key, lookup and insert cost per patch, on this field's own
    // decoder inputs.
    let normalized = engine.norm().normalize(field);
    let plan = frozen.try_plan(&normalized).expect("finite scores");
    let n_patches = plan.layout.num_patches();
    let inputs: Vec<(u8, Tensor<f32>)> = (0..n_patches)
        .map(|pi| (plan.binning.level_of(pi), plan.decoder_input(pi)))
        .collect();
    let secs = time_median(10, || {
        for (bin, input) in &inputs {
            black_box(PatchKey::new(cache_generation, *bin, input));
        }
    });
    out.insert("serve.cache_key_us", secs / n_patches as f64 * 1e6);

    // One in-process request fills the live cache with this field.
    server.submit_wait(field.clone()).prediction.recycle();
    let keys: Vec<PatchKey> = inputs
        .iter()
        .map(|(bin, input)| PatchKey::new(cache_generation, *bin, input))
        .collect();
    let secs = time_median(10, || {
        for key in &keys {
            black_box(server.cache().get(key));
        }
    });
    out.insert("serve.cache_get_us", secs / n_patches as f64 * 1e6);

    // Insert into a full cache, so each insert also evicts.
    let full = PatchCache::new(FULL_CACHE);
    let value = Tensor::<f32>::zeros(Shape::d3(4, PATCH, PATCH));
    let fresh_key = |i: usize| {
        let mut t = Tensor::<f32>::zeros(Shape::d3(7, PATCH, PATCH));
        t.as_mut_slice()[0] = i as f32;
        PatchKey::new(0, 0, &t)
    };
    for i in 0..FULL_CACHE {
        full.insert(&fresh_key(i), value.clone());
    }
    let fresh: Vec<PatchKey> = (FULL_CACHE..FULL_CACHE + n_patches)
        .map(fresh_key)
        .collect();
    let started = Instant::now();
    for key in &fresh {
        full.insert(key, value.clone());
    }
    out.insert(
        "serve.cache_insert_us",
        started.elapsed().as_secs_f64() / n_patches as f64 * 1e6,
    );

    // A hot request through the idle server against the same inference
    // called directly: what the queue, the linger window and the
    // thread hand-offs add.
    let direct = time_median(15, || {
        for p in infer_cached(
            &engine,
            cache_generation,
            std::slice::from_ref(field),
            &[],
            server.cache(),
        )
        .expect("finite scores")
        {
            p.recycle();
        }
    });
    let submitted = time_median(15, || {
        server.submit_wait(field.clone()).prediction.recycle()
    });
    out.insert("serve.submit_overhead_us", (submitted - direct) * 1e6);

    // Codec and framing, one call each, on the same request and its reply.
    let request = standard_request(1, field.clone());
    let body = encode_request(&request);
    let enc_req = time_median(20, || {
        black_box(encode_request(&request));
    });
    let dec_req = time_median(20, || {
        black_box(decode_request(&body).expect("request just encoded"));
    });
    let mut wire = Vec::new();
    let frame = time_median(20, || {
        wire.clear();
        write_frame(&mut wire, &body).expect("in-memory write");
        black_box(read_frame(&mut wire.as_slice()).expect("frame just written"));
    });
    let response = full_response(1, &engine, &plan);
    let reply = encode_response(&response);
    let enc_resp = time_median(20, || {
        black_box(encode_response(&response));
    });
    let dec_resp = time_median(20, || {
        black_box(decode_response(&reply).expect("response just encoded"));
    });
    let mut reply_wire = Vec::new();
    let reply_frame = time_median(20, || {
        reply_wire.clear();
        write_frame(&mut reply_wire, &reply).expect("in-memory write");
        black_box(read_frame(&mut reply_wire.as_slice()).expect("frame just written"));
    });
    out.insert("net.encode_request_us", enc_req * 1e6);
    out.insert("net.decode_request_us", dec_req * 1e6);
    out.insert("net.frame_crc_us", frame * 1e6);
    out.insert("net.encode_response_us", enc_resp * 1e6);
    out.insert("net.decode_response_us", dec_resp * 1e6);
    out.insert("net.request_bytes", wire.len() as f64);

    // The same hot request over loopback TCP: what is left after the
    // in-process request and the codec is sockets and one more thread.
    let net = NetServer::start("127.0.0.1:0", server.clone()).expect("loopback bind");
    let mut client = NetClient::connect(net.local_addr()).expect("loopback connect");
    let round_trip = time_median(15, || {
        black_box(
            client
                .infer(field.clone(), Priority::Standard, 0, 0)
                .expect("loopback request"),
        );
    });
    drop(client);
    net.shutdown();
    let codec = enc_req + dec_req + frame + enc_resp + dec_resp + reply_frame;
    out.insert(
        "net.wire_residual_us",
        (round_trip - submitted - codec) * 1e6,
    );

    for (_, input) in inputs {
        input.recycle();
    }
    plan.aug.recycle();
    plan.scores.recycle();
    normalized.recycle();
    drop(engine);
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }
}

/// Entries of the cache the insert probe fills (the serve default).
const FULL_CACHE: usize = 4096;

fn obs(out: &mut Metrics) {
    let secs = time_median(10, || {
        black_box(adarnet_obs::registry().snapshot());
    });
    out.insert("obs.snapshot_ms", secs * 1e3);
}

/// Run every probe.
pub fn run_all() -> Metrics {
    let mut out = Metrics::new();
    host(&mut out);
    tensor_and_nn(&mut out);
    let field = adarnet_serve::field_pool(3, H, W, 0).swap_remove(0);
    let stack = start_serve(PATCH);
    core(&mut out, &stack.engine, &field);
    let train = dataset_and_training(&mut out);
    cfd_and_amr(&mut out, &train);
    serve_and_net(&mut out, stack, &field);
    obs(&mut out);
    out
}

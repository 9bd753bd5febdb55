//! The benchmark's contract in one place: workloads, end-to-end
//! metrics with their bounds, and per-layer metrics with the end-to-end
//! metric each is expected to move. `BENCHMARK.json` is printed from
//! these tables (`--benchmark-json`) and a test keeps the two equal.

use crate::spans::Layer;

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 16;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LR solve → inference → capped warm-started solve.
    TtcCapped,
    /// TCP serving, every patch new to the cache.
    NetMiss,
    /// TCP serving, every patch in the cache.
    NetHit,
    /// In-process serving under a fixed arrival schedule.
    ServeOpenMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::TtcCapped,
        Workload::NetMiss,
        Workload::NetHit,
        Workload::ServeOpenMix,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TtcCapped => "ttc_capped",
            Workload::NetMiss => "net_miss",
            Workload::NetHit => "net_hit",
            Workload::ServeOpenMix => "serve_open_mix",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, with its loop kind, scale, planned
    /// operation count at [`RUN_SECONDS`] and tail percentile.
    pub fn why(self) -> &'static str {
        match self {
            Workload::TtcCapped => "paper path, cfd-bound: closed loop, 1 caller, 7 Table-1 cases in seeded order at LR 24x48, LR solve to tol then inference then 100-iteration warm solve; 5 passes = 35 ops; tail p70",
            Workload::NetMiss => "decoder-bound serving: TCP loopback, closed loop, 1 connection, 13 fields of 64x256 each send perturbed so cache hit share is 0; 7 passes = 91 ops; tail p80",
            Workload::NetHit => "decoder bypassed: same stack and 13 fields unperturbed, closed loop, 2 connections, hit share 1, so scorer, patch assembly, cache and codec are the work; about 1040 ops; tail p99",
            Workload::ServeOpenMix => "scheduler under arrivals: in-process open loop at 40 req/s, 90% hot interactive-lane and 10% cold bulk-lane 32x64 fields, latency from due time, limit 1 s; 640 ops; tail p95",
        }
    }

    /// The fixed tail percentile: the highest ladder step that leaves
    /// ten samples beyond it at the planned operation count. The open
    /// loop keeps thirty: there one stall of the host delays every
    /// request due during it, six or more at 40 requests a second, so
    /// ten samples beyond the percentile are a single stall (p98 moved
    /// by a half between runs, p95 does not).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::TtcCapped => 70.0,
            Workload::NetMiss => 80.0,
            Workload::NetHit => 99.0,
            Workload::ServeOpenMix => 95.0,
        }
    }

    /// Operations planned at [`RUN_SECONDS`].
    pub fn planned_ops(self) -> usize {
        match self {
            Workload::TtcCapped => 35,
            Workload::NetMiss => 91,
            Workload::NetHit => 1040,
            Workload::ServeOpenMix => 640,
        }
    }
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The five end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// `true`: measured by a fixed probe in every traced run. `false`:
    /// read from the workload's traced pass, 0 where the workload does
    /// not run the stage.
    pub probe: bool,
    /// The end-to-end metric and workload it should move; everything
    /// else is predicted unchanged.
    pub moves: &'static str,
}

const fn probe(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        probe: true,
        moves,
    }
}

const fn traced(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        probe: false,
        moves,
    }
}

use Better::{Higher, Lower};

const MISS: &str = "latency_p50_ms and throughput_ops_s on net_miss; none on net_hit";
const HIT: &str = "latency_p50_ms on net_hit";
const TTC: &str = "latency_p50_ms and throughput_ops_s on ttc_capped only";
const MIX_TAIL: &str = "latency_tail_ms on serve_open_mix";
const CONTEXT: &str = "none: same-run calibration for roofline shares";

/// Every per-layer metric a traced run prints.
pub const PER_LAYER: &[PerLayer] = &[
    probe("host.fma_peak_gflops", "GFLOP/s", Higher, CONTEXT),
    probe("host.stream_gb_s", "GB/s", Higher, CONTEXT),
    traced("tensor.pool_hit_share", "share", Higher, HIT),
    probe("tensor.patch_stack_ms", "ms", Lower, HIT),
    probe("nn.bicubic_ms", "ms", Lower, HIT),
    probe("nn.scorer_gflops", "GFLOP/s", Higher, HIT),
    probe("nn.dec_l1_bin0_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l2_bin0_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l3_bin0_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l4_bin0_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l5_bin0_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l6_bin0_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l1_bin3_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l2_bin3_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l3_bin3_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l4_bin3_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l5_bin3_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.dec_l6_bin3_gflops", "GFLOP/s", Higher, MISS),
    probe("nn.roof_share_l4_bin3", "share", Higher, MISS),
    probe("core.normalize_ms", "ms", Lower, HIT),
    probe("core.plan_ms", "ms", Lower, HIT),
    probe("core.decoder_input_ms", "ms", Lower, HIT),
    traced("core.decode_bin0_ms", "ms", Lower, MISS),
    traced("core.decode_bin1_ms", "ms", Lower, MISS),
    traced("core.decode_bin2_ms", "ms", Lower, MISS),
    traced("core.decode_bin3_ms", "ms", Lower, MISS),
    traced("core.patches_bin0", "count", Lower, MISS),
    traced("core.patches_bin1", "count", Lower, MISS),
    traced("core.patches_bin2", "count", Lower, MISS),
    traced("core.patches_bin3", "count", Lower, MISS),
    probe("core.infer_residual_share", "share", Lower, MISS),
    probe("core.prediction_to_state_ms", "ms", Lower, TTC),
    probe("core.train_step_ms", "ms", Lower, "setup_s on ttc_capped"),
    traced("cfd.lr_solve_ms", "ms", Lower, TTC),
    traced("cfd.lr_iters", "count", Lower, TTC),
    traced("cfd.warm_solve_ms", "ms", Lower, TTC),
    traced("cfd.warm_iters", "count", Lower, TTC),
    traced("cfd.converged_share", "share", Higher, TTC),
    probe("cfd.mesh_build_ms", "ms", Lower, TTC),
    probe("cfd.mcell_updates_s_uniform", "Mcell/s", Higher, TTC),
    probe("cfd.mcell_updates_s_composite", "Mcell/s", Higher, TTC),
    traced("amr.active_cells", "count", Lower, TTC),
    probe("amr.ghost_sweep_us", "us", Lower, TTC),
    probe("amr.project_ms", "ms", Lower, TTC),
    probe(
        "amr.baseline_s",
        "s",
        Lower,
        "none: the paper's denominator, kept out of the timed loop",
    ),
    probe(
        "amr.baseline_iters",
        "count",
        Lower,
        "none: the paper's denominator",
    ),
    probe(
        "amr.speedup_x",
        "x",
        Higher,
        "none: baseline_s over the one-shot path's time on the same case",
    ),
    probe(
        "dataset.synthesize_ms",
        "ms",
        Lower,
        "setup_s on every workload",
    ),
    probe("serve.submit_overhead_us", "us", Lower, HIT),
    probe("serve.cache_key_us", "us", Lower, HIT),
    probe("serve.cache_get_us", "us", Lower, HIT),
    probe(
        "serve.cache_insert_us",
        "us",
        Lower,
        "latency_p50_ms on net_miss (pure overhead there)",
    ),
    traced("serve.cache_hit_share", "share", Higher, HIT),
    traced("serve.queue_wait_p50_us", "us", Lower, MIX_TAIL),
    traced("serve.queue_wait_p99_us", "us", Lower, MIX_TAIL),
    traced("serve.batch_size_mean", "count", Higher, MIX_TAIL),
    traced("serve.lane_interactive_p99_ms", "ms", Lower, MIX_TAIL),
    traced("serve.lane_bulk_p99_ms", "ms", Lower, MIX_TAIL),
    traced("serve.shed_share", "share", Lower, MIX_TAIL),
    probe("net.encode_request_us", "us", Lower, HIT),
    probe("net.decode_request_us", "us", Lower, HIT),
    probe("net.frame_crc_us", "us", Lower, HIT),
    probe("net.encode_response_us", "us", Lower, HIT),
    probe("net.decode_response_us", "us", Lower, HIT),
    probe("net.wire_residual_us", "us", Lower, HIT),
    probe("net.request_bytes", "B", Lower, HIT),
    traced(
        "obs.trace_overhead_share",
        "share",
        Lower,
        "none: cost of the ledger's own spans",
    ),
    probe(
        "obs.snapshot_ms",
        "ms",
        Lower,
        "none: cost of one registry snapshot",
    ),
    traced(
        "share.tensor",
        "share",
        Lower,
        "self-time share of the traced operation",
    ),
    traced(
        "share.nn",
        "share",
        Lower,
        "self-time share of the traced operation",
    ),
    traced(
        "share.amr",
        "share",
        Lower,
        "self-time share of the traced operation",
    ),
    traced(
        "share.cfd",
        "share",
        Lower,
        "self-time share of the traced operation",
    ),
    traced(
        "share.dataset",
        "share",
        Lower,
        "self-time share of the traced operation",
    ),
    traced(
        "share.core",
        "share",
        Lower,
        "self-time share of the traced operation",
    ),
    traced(
        "share.serve",
        "share",
        Lower,
        "self-time share of the traced operation",
    ),
    traced(
        "share.net",
        "share",
        Lower,
        "self-time share of the traced operation",
    ),
    traced(
        "share.obs",
        "share",
        Lower,
        "self-time share of the traced operation",
    ),
    traced(
        "share.unattributed",
        "share",
        Lower,
        "time in the traced operation that no call into a crate covers",
    ),
];

/// The table's own spelling of a per-layer metric name, so a name put
/// together at run time is checked against the table when it is used.
pub fn per_layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// Name of a layer's share metric.
pub fn share_metric(layer: Layer) -> &'static str {
    match layer {
        Layer::Ledger => "share.unattributed",
        other => per_layer_name(&format!("share.{}", other.name())),
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"ledger\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

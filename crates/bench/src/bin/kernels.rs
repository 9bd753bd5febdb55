//! Convolution kernel throughput sweep over the paper's shapes, per
//! compute backend.
//!
//! Benchmarks the one conv path the layers run, the packed GEMM
//! driver, in its two feeds: panels packed once outside the timed
//! region, as a frozen model does (`packed`), and the weight packed
//! into pooled scratch inside every call, the mutable layers' entry
//! point (`percall`) — across the patch extents the decoder actually
//! sees (16/32/64/128 per side: 16x16 patches refined to bins 0–3, and
//! the 8x8 bin-0 patch of the 8x8-patch models) and the decoder/scorer
//! channel widths (8/16/64), plus the scorer's four convs (4→8, 8→16,
//! 16→16, 16→1) on its full 64x256 LR field. Every configuration runs
//! on **both** backends: the scalar reference plane and the vectorized
//! plane, each row recording the register tile that ran (`scalar_4x16`
//! | `avx2_4x16` | `avx512_4x64`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p adarnet-bench --bin kernels                # full sweep -> BENCH_kernels.json
//! cargo run --release -p adarnet-bench --bin kernels -- --smoke     # CI budget, no file written
//! cargo run --release -p adarnet-bench --bin kernels -- --smoke \
//!     --check-against BENCH_kernels.json                            # regression gate (>1.5x fails)
//! cargo run --release -p adarnet-bench --bin kernels -- --gate-simd # SIMD >= 1.5x scalar at bin 3
//! cargo run --release -p adarnet-bench --bin kernels -- --out path  # explicit output path
//! ```
//!
//! Two gates, both ratio-based so they hold on noisy shared machines:
//!
//! * **`--check-against`**: per `(label, backend)` row, the packed
//!   path must run within 1.5x of the committed baseline.
//! * **`--gate-simd`**: same-run comparison — the SIMD backend's
//!   packed GFLOP/s must be >= 1.5x scalar on the bin-3 rows (skipped
//!   with a note on hardware without AVX2/FMA, where both planes run
//!   the same scalar micro-kernels).

use std::hint::black_box;
use std::time::Instant;

use adarnet_nn::he_normal;
use adarnet_nn::kernels::{pack_weight_panels, packed_panels_len, PackedPanels};
use adarnet_nn::Device;
use adarnet_tensor::{Shape, Tensor};
use serde::{field, object, DeError, Deserialize, Serialize, Value};

/// One benchmarked (extent, channels, backend) configuration.
#[derive(Debug)]
struct ConfigResult {
    /// Square spatial extent per side (bin n of a 16x16 patch -> 16 << n),
    /// except the scorer rows which are 64x256.
    label: String,
    /// Backend the row ran on (`cpu_scalar` / `cpu_simd`).
    backend: String,
    /// Widest register tile the backend's GEMM ran on the producing
    /// machine (`scalar_4x16` | `avx2_4x16` | `avx512_4x64`).
    tile: String,
    /// Input spatial extent.
    h: usize,
    w: usize,
    /// Input and output channels (3x3 same-padded).
    ic: usize,
    oc: usize,
    /// Output pixels per image (`h * w` with same padding).
    o_len: usize,
    /// Seconds per iteration of the frozen path: the driver over panels
    /// packed once outside the timed region.
    packed_secs: f64,
    /// Seconds per iteration of the mutable path, what `Conv2d::forward`
    /// runs: as `packed_secs`, with the weight packed into pooled
    /// scratch inside every timed call.
    percall_secs: f64,
    /// Packed-path throughput in GFLOP/s (2 * oc * k_len * o_len flops).
    packed_gflops: f64,
}

/// The committed benchmark artifact.
#[derive(Debug)]
struct BenchReport {
    schema: String,
    /// `full` or `smoke` — smoke numbers are for the regression gate
    /// only and are never written over a full baseline.
    mode: String,
    /// Whether the `cpu_simd` rows actually ran vectorized
    /// micro-kernels on the producing machine (false = they degraded
    /// to scalar, so the two backends' rows measure the same code).
    simd_active: bool,
    configs: Vec<ConfigResult>,
}

impl Serialize for ConfigResult {
    fn to_value(&self) -> Value {
        object([
            ("label", self.label.to_value()),
            ("backend", self.backend.to_value()),
            ("tile", self.tile.to_value()),
            ("h", self.h.to_value()),
            ("w", self.w.to_value()),
            ("ic", self.ic.to_value()),
            ("oc", self.oc.to_value()),
            ("o_len", self.o_len.to_value()),
            ("packed_secs", self.packed_secs.to_value()),
            ("percall_secs", self.percall_secs.to_value()),
            ("packed_gflops", self.packed_gflops.to_value()),
        ])
    }
}

impl Deserialize for ConfigResult {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        const OWNER: &str = "ConfigResult";
        Ok(ConfigResult {
            label: field(value, "label", OWNER)?,
            backend: field(value, "backend", OWNER)?,
            tile: field(value, "tile", OWNER)?,
            h: field(value, "h", OWNER)?,
            w: field(value, "w", OWNER)?,
            ic: field(value, "ic", OWNER)?,
            oc: field(value, "oc", OWNER)?,
            o_len: field(value, "o_len", OWNER)?,
            packed_secs: field(value, "packed_secs", OWNER)?,
            percall_secs: field(value, "percall_secs", OWNER)?,
            packed_gflops: field(value, "packed_gflops", OWNER)?,
        })
    }
}

impl Serialize for BenchReport {
    fn to_value(&self) -> Value {
        object([
            ("schema", self.schema.to_value()),
            ("mode", self.mode.to_value()),
            ("simd_active", self.simd_active.to_value()),
            ("configs", self.configs.to_value()),
        ])
    }
}

impl Deserialize for BenchReport {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        const OWNER: &str = "BenchReport";
        Ok(BenchReport {
            schema: field(value, "schema", OWNER)?,
            mode: field(value, "mode", OWNER)?,
            simd_active: field(value, "simd_active", OWNER)?,
            configs: field(value, "configs", OWNER)?,
        })
    }
}

/// Time `f` adaptively: one probe iteration sizes a batch that targets
/// `budget` seconds, then the batch is timed. Returns secs per iteration.
fn time_secs(budget: f64, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64().max(1e-7);
    let reps = ((budget / once).ceil() as usize).clamp(1, 10_000);
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn bench_config(
    label: &str,
    dev: Device,
    h: usize,
    w: usize,
    ic: usize,
    oc: usize,
    budget: f64,
) -> ConfigResult {
    let x = Tensor::<f32>::from_vec(
        Shape::d4(1, ic, h, w),
        (0..ic * h * w)
            .map(|i| ((i as f32) * 0.013).sin())
            .collect(),
    );
    let wt = he_normal(Shape::d4(oc, ic, 3, 3), ic * 9, 7);
    let b = Tensor::<f32>::zeros(Shape::d1(oc));
    let o_len = h * w;
    let k_len = ic * 9;

    // Panels for the pre-packed path, built outside the timed region
    // — exactly what a frozen model does at construction.
    let mut panels = vec![0.0f32; packed_panels_len(oc, k_len)];
    pack_weight_panels(wt.as_slice(), oc, k_len, &mut panels);
    let packed = PackedPanels {
        data: &panels,
        oc,
        ic,
        kh: 3,
        kw: 3,
    };

    // The two GEMM feeds are timed in rotation for several rounds and
    // each column takes its per-path minimum (the classical
    // least-interference estimator on a steal-prone shared host). Full
    // mode buys five rounds; smoke stays at three to hold the CI
    // budget.
    let rounds = if budget > 0.1 { 5 } else { 3 };
    let mut packed_secs = f64::INFINITY;
    let mut percall_secs = f64::INFINITY;
    for _ in 0..rounds {
        let packed_r = time_secs(budget, || {
            black_box(dev.conv2d_forward_packed(black_box(&x), packed, &b, 1)).recycle();
        });
        let percall_r = time_secs(budget, || {
            black_box(dev.conv2d_forward_percall(black_box(&x), &wt, &b, 1)).recycle();
        });
        packed_secs = packed_secs.min(packed_r);
        percall_secs = percall_secs.min(percall_r);
    }

    let flops = 2.0 * oc as f64 * k_len as f64 * o_len as f64;
    ConfigResult {
        label: label.to_string(),
        backend: dev.name().to_string(),
        tile: dev.gemm_tile().0.to_string(),
        h,
        w,
        ic,
        oc,
        o_len,
        packed_secs,
        percall_secs,
        packed_gflops: flops / packed_secs / 1e9,
    }
}

const BACKENDS: [Device; 2] = [Device::CpuScalar, Device::CpuSimd];

fn run_sweep(smoke: bool) -> BenchReport {
    // Per-path, per-config measurement budget. Smoke keeps the whole
    // sweep under a few seconds for CI; full targets stable numbers.
    let budget = if smoke { 0.02 } else { 0.25 };
    let mut shapes: Vec<(String, usize, usize, usize, usize)> = Vec::new();
    // Bin 0 of the 8x8-patch models, below the 16x16 patch's bin 0.
    shapes.push(("sub0_8x8_8ch".to_string(), 8, 8, 8, 8));
    // 16x16 patches at bins 0..=3 -> 16/32/64/128 per side.
    for bin in 0..4usize {
        let e = 16 << bin;
        for &ch in &[8usize, 16, 64] {
            shapes.push((format!("bin{bin}_{e}x{e}_{ch}ch"), e, e, ch, ch));
        }
    }
    // The scorer runs on the full LR field, not a patch; its last conv
    // (16→1) is the one model shape with fewer output channels than a
    // register tile has rows.
    for &(ic, oc) in &[(4usize, 8usize), (8, 16), (16, 16), (16, 1)] {
        shapes.push((format!("scorer_64x256_{ic}to{oc}"), 64, 256, ic, oc));
    }

    // Interleave backends per shape (scalar then simd on the same
    // warmed caches) so cross-backend ratios cancel machine drift.
    let mut configs = Vec::new();
    for (label, h, w, ic, oc) in &shapes {
        for dev in BACKENDS {
            eprintln!("  running {label} on {} ...", dev.name());
            configs.push(bench_config(label, dev, *h, *w, *ic, *oc, budget));
        }
    }

    BenchReport {
        schema: "adarnet-bench-kernels-v7".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        simd_active: Device::CpuSimd.is_simd_active(),
        configs,
    }
}

/// Compare `current` against a committed baseline; returns the rows
/// whose packed path regressed by more than `max_ratio`. Rows are
/// keyed `(label, backend)`; baseline rows without a match (e.g. an
/// older schema) are skipped.
fn regressions(current: &BenchReport, baseline: &BenchReport, max_ratio: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for cur in &current.configs {
        if let Some(base) = baseline
            .configs
            .iter()
            .find(|c| c.label == cur.label && c.backend == cur.backend)
        {
            let ratio = cur.packed_secs / base.packed_secs;
            if ratio > max_ratio {
                bad.push(format!(
                    "{} [{}]: packed path {:.2}x slower than baseline ({:.3e}s vs {:.3e}s)",
                    cur.label, cur.backend, ratio, cur.packed_secs, base.packed_secs
                ));
            }
        }
    }
    bad
}

/// The SIMD gate: same-run packed GFLOP/s, SIMD vs scalar, on the
/// bin-3 (128x128) rows — the largest decode shapes, where the vector
/// plane's advantage must be unambiguous even on a noisy host.
fn simd_gate_violations(report: &BenchReport, min_speedup: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for cur in report
        .configs
        .iter()
        .filter(|c| c.label.starts_with("bin3_") && c.backend == Device::CpuSimd.name())
    {
        let Some(scalar) = report
            .configs
            .iter()
            .find(|c| c.label == cur.label && c.backend == Device::CpuScalar.name())
        else {
            continue;
        };
        let speedup = cur.packed_gflops / scalar.packed_gflops;
        if speedup < min_speedup {
            bad.push(format!(
                "{}: simd {:.2} GFLOP/s vs scalar {:.2} GFLOP/s = {:.2}x (need >= {min_speedup}x)",
                cur.label, cur.packed_gflops, scalar.packed_gflops, speedup
            ));
        }
    }
    bad
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate_simd = args.iter().any(|a| a == "--gate-simd");
    let check_against = args
        .iter()
        .position(|a| a == "--check-against")
        .map(|i| args[i + 1].clone());
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args[i + 1].clone());

    eprintln!(
        "kernel sweep ({}): packed vs per-call, backends {:?}, simd_active={}",
        if smoke { "smoke" } else { "full" },
        BACKENDS.map(Device::name),
        Device::CpuSimd.is_simd_active(),
    );
    let report = run_sweep(smoke);

    println!(
        "{:<24} {:<11} {:<12} {:>8} {:>12} {:>12} {:>10}",
        "config", "backend", "tile", "o_len", "packed s", "percall s", "GFLOP/s",
    );
    for c in &report.configs {
        println!(
            "{:<24} {:<11} {:<12} {:>8} {:>12.3e} {:>12.3e} {:>10.2}",
            c.label, c.backend, c.tile, c.o_len, c.packed_secs, c.percall_secs, c.packed_gflops,
        );
    }

    let mut failed = false;

    if gate_simd {
        if Device::CpuSimd.is_simd_active() {
            let bad = simd_gate_violations(&report, 1.5);
            if bad.is_empty() {
                println!("simd gate: OK (bin-3 packed GEMM >= 1.5x scalar)");
            } else {
                eprintln!("simd gate FAILED:");
                for b in &bad {
                    eprintln!("  {b}");
                }
                failed = true;
            }
        } else {
            println!("simd gate: skipped (no AVX2/FMA; cpu_simd degrades to scalar here)");
        }
    }

    if let Some(path) = &check_against {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: BenchReport = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
        let bad = regressions(&report, &baseline, 1.5);
        if bad.is_empty() {
            println!(
                "regression gate: OK ({} rows within 1.5x of baseline)",
                report.configs.len()
            );
        } else {
            eprintln!("regression gate FAILED:");
            for b in &bad {
                eprintln!("  {b}");
            }
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return; // gate runs never overwrite the committed baseline
    }

    if failed {
        std::process::exit(1);
    }

    let path = out.unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json + "\n").unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline is what `--check-against` reads: it must
    /// decode, and rendering it again must give back its exact bytes.
    #[test]
    fn committed_baseline_roundtrips_byte_for_byte() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        let text = std::fs::read_to_string(path).expect("BENCH_kernels.json is committed");
        let report: BenchReport = serde_json::from_str(&text).expect("baseline decodes");
        assert!(!report.configs.is_empty());
        let rendered = serde_json::to_string_pretty(&report).expect("report serializes") + "\n";
        assert!(
            rendered == text,
            "re-rendered baseline differs from the file"
        );
    }
}

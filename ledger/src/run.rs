//! One run of one workload, as the driver invokes it: set up, measure
//! untraced (or replay traced), check outputs, report.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spec::{Workload, END_TO_END, SETUP_REPS};
use crate::stats::{median, summarize_latency, windowed_median_rate};
use crate::workloads::net::{Mode, NetStack};
use crate::workloads::open_mix::{self, OpenMix};
use crate::workloads::ttc::Ttc;
use crate::workloads::Measured;

/// What a run reports on its last line.
#[derive(Debug)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
}

impl RunResult {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set up [`SETUP_REPS`] times, dropping each stack before the next is
/// built; returns the last one and the median set-up time. One set-up
/// of two or three seconds moved by a sixth between runs of the same
/// code on this host; the median of three is steadier.
fn repeated_setup<C>(mut setup: impl FnMut() -> C, mut teardown: impl FnMut(C)) -> (C, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS is at least 1"), median(&times))
}

fn end_to_end(
    workload: Workload,
    setup_s: f64,
    ops_per_window: usize,
    mut measured: Measured,
    teardown_violations: Vec<String>,
) -> RunResult {
    measured.violations.extend(teardown_violations);
    let tail_p = workload.tail_percentile();
    let latency = summarize_latency(&measured.latencies_ms, tail_p);
    let throughput = windowed_median_rate(&measured.completions, ops_per_window);
    let values = [
        setup_s,
        latency.p50_ms,
        latency.tail_ms,
        throughput,
        peak_rss_mb(),
    ];
    let mut metrics = BTreeMap::new();
    let mut report = vec![format!("workload {}", workload.name())];
    report.extend(measured.notes.iter().map(|n| format!("  {n}")));
    for (spec, value) in END_TO_END.iter().zip(values) {
        metrics.insert(spec.name.to_string(), (value, spec.unit));
        let detail = match spec.name {
            "setup_s" => format!("median of {SETUP_REPS} set-ups"),
            "latency_p50_ms" => format!("{} samples", latency.samples),
            "latency_tail_ms" => format!(
                "p{tail_p} of {} samples, {} beyond",
                latency.samples, latency.beyond_tail
            ),
            "throughput_ops_s" => format!(
                "median over {} windows of {ops_per_window} ops",
                measured.completions.len() / ops_per_window
            ),
            _ => String::from("VmHWM at exit"),
        };
        report.push(format!(
            "  {:<18} {:>12.4} {:<4} ({detail}; bound {})",
            spec.name, value, spec.unit, spec.bound
        ));
    }
    report.push(format!(
        "  ops_attempted {} ops_failed {}",
        measured.attempted, measured.failed
    ));
    for v in &measured.violations {
        report.push(format!("  OUTPUT CHECK FAILED: {v}"));
    }
    RunResult {
        correct: measured.violations.is_empty(),
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
        report,
    }
}

/// The untraced run: every end-to-end metric of one workload.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    match workload {
        Workload::TtcCapped => {
            let (ttc, setup_s) = repeated_setup(|| Ttc::setup(seed), drop);
            let measured = ttc.measure(seconds);
            end_to_end(workload, setup_s, ttc.ops_per_pass(), measured, Vec::new())
        }
        Workload::NetMiss | Workload::NetHit => {
            let mode = if workload == Workload::NetMiss {
                Mode::Miss
            } else {
                Mode::Hit
            };
            let mut early = Vec::new();
            let (mut stack, setup_s) =
                repeated_setup(|| NetStack::setup(mode, seed), |s| early.extend(s.finish()));
            let measured = stack.measure(seconds);
            let window = stack.ops_per_window();
            early.extend(stack.finish());
            end_to_end(workload, setup_s, window, measured, early)
        }
        Workload::ServeOpenMix => {
            let mut early = Vec::new();
            let (mut mix, setup_s) =
                repeated_setup(|| OpenMix::setup(seed), |m| early.extend(m.finish()));
            let measured = mix.measure(seconds);
            early.extend(mix.finish());
            end_to_end(workload, setup_s, open_mix::OPS_PER_WINDOW, measured, early)
        }
    }
}

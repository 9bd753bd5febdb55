//! `adarnet-ledger`: the repository's benchmark.
//!
//! ```text
//! adarnet-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! adarnet-ledger [--seed <n>] [--seconds <s>] [--trace <0|1>]     every workload
//! adarnet-ledger --aa <N> [--seed <n>] [--seconds <s>]             A/A repeatability
//! adarnet-ledger --benchmark-json                                  print BENCHMARK.json
//! ```
//!
//! With `--workload` it is one run as the driver makes it: the last
//! line of standard output is the result object. Without, it runs each
//! workload in a child process (set-up time and peak memory are
//! per-process numbers) and prints every metric by name.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use adarnet_ledger::run::{untraced, RunResult};
use adarnet_ledger::spec::{benchmark_json, Better, Workload, END_TO_END, RUN_SECONDS};
use adarnet_ledger::stats::{median, quartiles, spread};
use adarnet_ledger::trace::traced;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: adarnet-ledger [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--aa <N>] [--benchmark-json]",
        names.join("|")
    )
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--benchmark-json" {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--aa" => args.aa = Some(value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Some(args))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_run(result: &RunResult) {
    for line in &result.report {
        println!("{line}");
    }
    println!("{}", result.to_json());
}

/// Metric name → value, read back from a child's result line.
struct ChildResult {
    correct: bool,
    attempted: i128,
    failed: i128,
    metrics: BTreeMap<String, f64>,
}

fn parse_result_line(line: &str) -> Option<ChildResult> {
    use serde::Value;
    let value = serde_json::parse_value(line).ok()?;
    let fields = value.as_object()?;
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let int = |v: &Value| match v {
        Value::Int(i) => Some(*i),
        _ => None,
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in get("metrics")?.as_object()? {
        let number = entry
            .as_object()?
            .iter()
            .find(|(k, _)| k == "value")
            .map(|(_, v)| v)?;
        let number = match number {
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            _ => return None,
        };
        metrics.insert(name.clone(), number);
    }
    Some(ChildResult {
        correct: matches!(get("correct")?, Value::Bool(true)),
        attempted: int(get("attempted")?)?,
        failed: int(get("failed")?)?,
        metrics,
    })
}

/// Run one workload in a child process, echo its report, and parse its
/// result line.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, report) = lines.split_last()?;
    if echo {
        for line in report {
            println!("{line}");
        }
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    let parsed = parse_result_line(last)?;
    (output.status.success() || !parsed.correct).then_some(parsed)
}

/// Every workload once untraced, and with `--trace 1` once more
/// traced; non-zero exit on any output-check failure.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match run_child(workload, args.seed, args.seconds, trace, true) {
                Some(r) => {
                    println!(
                        "  => {} correct {} attempted {} failed {}",
                        workload.name(),
                        r.correct,
                        r.attempted,
                        r.failed
                    );
                    ok &= r.correct;
                }
                None => {
                    println!("  => {} did not report a result", workload.name());
                    ok = false;
                }
            }
        }
    }
    exit_code(ok)
}

/// A/A: every workload `2n` times under two labels that alternate which
/// goes first, both running this same program on the same seeds. For
/// each metric it prints the two medians, the quartiles of all `2n`
/// values, and the gap between the medians in the metric's worse
/// direction beside its bound; a gap beyond the bound fails.
fn run_aa(args: &Args, n: usize) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        let mut samples: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for pair in 0..n {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for label in order {
                let seed = args.seed + pair as u64;
                let Some(r) = run_child(workload, seed, args.seconds, false, false) else {
                    println!("{}: run failed", workload.name());
                    return ExitCode::FAILURE;
                };
                ok &= r.correct;
                for spec in &END_TO_END {
                    samples[label]
                        .entry(spec.name)
                        .or_default()
                        .push(r.metrics.get(spec.name).copied().unwrap_or(f64::NAN));
                }
            }
        }
        println!("workload {} ({n} pairs)", workload.name());
        for spec in &END_TO_END {
            let (a, b) = (&samples[0][spec.name], &samples[1][spec.name]);
            let (ma, mb) = (median(a), median(b));
            let all: Vec<f64> = a.iter().chain(b).copied().collect();
            let (q1, q3) = quartiles(&all);
            let worse = match spec.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let gap = worse.abs();
            let verdict = if gap <= spec.bound {
                "ok"
            } else {
                "EXCEEDS BOUND"
            };
            ok &= gap <= spec.bound;
            println!(
                "  {:<18} A {:>11.4} B {:>11.4} {:<4} q1 {:>11.4} q3 {:>11.4} spread {:.4} gap {:.4} bound {} {verdict}",
                spec.name,
                ma,
                mb,
                spec.unit,
                q1,
                q3,
                spread(&all),
                gap,
                spec.bound
            );
        }
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.aa {
        return run_aa(&args, n);
    }
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let result = if args.trace {
        traced(workload, args.seed, args.seconds)
    } else {
        untraced(workload, args.seed, args.seconds)
    };
    print_run(&result);
    exit_code(result.correct)
}

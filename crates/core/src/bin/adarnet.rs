//! `adarnet` — command-line interface to the ADARNet reproduction.
//!
//! ```text
//! adarnet train    --out model.json [--per-family 12] [--epochs 8]
//!                  [--height 32] [--width 128] [--patch 8]
//! adarnet predict  --model model.json --case cylinder [--re 1e5]
//! adarnet run-case --model model.json --case channel --re 2.5e3
//!                  [--max-iters 3000] [--length L]
//! adarnet info     --model model.json
//! ```
//!
//! `predict` prints the one-shot refinement map and active-cell savings;
//! `run-case` additionally drives the prediction to convergence with the
//! physics solver and reports TTC/ITC. Argument parsing is intentionally
//! dependency-free.

use std::collections::HashMap;
use std::process::ExitCode;

use adarnet_amr::PatchLayout;
use adarnet_cfd::{CaseConfig, SolverConfig};
use adarnet_core::framework::LrInput;
use adarnet_core::{
    checkpoint, run_adarnet_case, AdarNet, AdarNetConfig, NormStats, Trainer, TrainerConfig,
};
use adarnet_dataset::{generate, DatasetConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "train" => cmd_train(&opts),
        "predict" => cmd_predict(&opts),
        "run-case" => cmd_run_case(&opts),
        "info" => cmd_info(&opts),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  adarnet train    --out <file> [--per-family N] [--epochs N] [--height H] [--width W] [--patch P]
  adarnet predict  --model <file> --case <name> [--re X]
  adarnet run-case --model <file> --case <name> [--re X] [--max-iters N] [--length L]
  adarnet info     --model <file>
cases: channel | flat-plate | cylinder | naca0012 | naca1412 | ellipse";

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut out = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{a}`"));
        };
        let val = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        out.insert(key.to_string(), val.clone());
    }
    Ok(out)
}

fn get_num<T: std::str::FromStr>(opts: &Flags, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

fn get_req<'a>(opts: &'a Flags, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn case_by_name(name: &str, re: f64) -> Result<CaseConfig, String> {
    Ok(match name {
        "channel" => CaseConfig::channel(re),
        "flat-plate" => CaseConfig::flat_plate(re),
        "cylinder" => CaseConfig::cylinder(re),
        "naca0012" => CaseConfig::naca0012(re),
        "naca1412" => CaseConfig::naca1412(re),
        "ellipse" => CaseConfig::ellipse(0.25, 2.0, re),
        other => return Err(format!("unknown case `{other}`")),
    })
}

fn default_re(name: &str) -> f64 {
    match name {
        "channel" => 2.5e3,
        "flat-plate" => 2.5e5,
        "cylinder" => 1e5,
        _ => 2.5e4,
    }
}

fn cmd_train(opts: &Flags) -> Result<(), String> {
    let out = get_req(opts, "out")?.to_string();
    let per_family = get_num(opts, "per-family", 12usize)?;
    let epochs = get_num(opts, "epochs", 8usize)?;
    let h = get_num(opts, "height", 32usize)?;
    let w = get_num(opts, "width", 128usize)?;
    let patch = get_num(opts, "patch", 8usize)?;
    if per_family < 2 {
        return Err(format!(
            "--per-family {per_family}: need at least 2 samples per family"
        ));
    }
    if patch == 0 || h % patch != 0 || w % patch != 0 {
        return Err(format!(
            "patch {patch} must divide height {h} and width {w}"
        ));
    }

    let ds_cfg = DatasetConfig {
        per_family,
        h,
        w,
        seed: 0,
        val_fraction: 0.1,
    };
    let (train, val) = adarnet_dataset::train_val_split(generate(&ds_cfg), &ds_cfg);
    println!("dataset: {} train / {} val", train.len(), val.len());

    let norm = NormStats::from_samples(train.iter().map(|s| &s.field));
    let model = AdarNet::new(AdarNetConfig {
        ph: patch,
        pw: patch,
        bins: 4,
        seed: 42,
        ..AdarNetConfig::default()
    });
    let mut trainer = Trainer::new(model, norm, TrainerConfig::default());
    for e in 0..epochs {
        let tr = trainer.train_epoch(&train);
        let va = trainer.validate(&val);
        println!(
            "epoch {e}: train {:.4e} (data {:.4e} pde {:.4e}) val {:.4e}",
            tr.total, tr.data, tr.pde, va.total
        );
    }
    checkpoint::save_file(&trainer.model, &trainer.norm, &out)
        .map_err(|e| format!("saving {out}: {e}"))?;
    println!("saved model to {out}");
    Ok(())
}

fn load_model(opts: &Flags) -> Result<(AdarNet, NormStats), String> {
    let path = get_req(opts, "model")?;
    checkpoint::load_file(path).map_err(|e| format!("loading {path}: {e}"))
}

fn lr_extent_for(model: &AdarNet) -> (usize, usize) {
    // Match the training patch size; default to a 4x16-patch field.
    (model.cfg.ph * 4, model.cfg.pw * 16)
}

fn cmd_predict(opts: &Flags) -> Result<(), String> {
    let (model, norm) = load_model(opts)?;
    let case_name = get_req(opts, "case")?;
    let re = get_num(opts, "re", default_re(case_name))?;
    let case = case_by_name(case_name, re)?;
    let (h, w) = lr_extent_for(&model);
    let lr = adarnet_dataset::synthesize(&case, h, w);
    let pred = model
        .freeze()
        .try_predict(&norm.normalize(&lr))
        .map_err(|e| e.to_string())?;
    let map = pred.refinement_map(model.cfg.bins - 1);
    println!(
        "{} — one-shot refinement map (levels 0-{}):",
        case.name,
        model.cfg.bins - 1
    );
    print!("{}", map.ascii());
    let uniform = map.layout().num_patches() * map.layout().patch_cells(map.max_level());
    println!(
        "active cells {} / uniform {} ({:.1}%), memory reduction {:.2}x",
        map.active_cells(),
        uniform,
        100.0 * map.active_cells() as f64 / uniform as f64,
        adarnet_core::memory::reduction_factor(&map)
    );
    Ok(())
}

fn cmd_run_case(opts: &Flags) -> Result<(), String> {
    let (model, norm) = load_model(opts)?;
    let case_name = get_req(opts, "case")?;
    let re = get_num(opts, "re", default_re(case_name))?;
    let mut case = case_by_name(case_name, re)?;
    if let Some(l) = opts.get("length") {
        case.lx = l.parse().map_err(|_| "--length: bad value".to_string())?;
    }
    let max_iters = get_num(opts, "max-iters", 3000u64)?;
    let (h, w) = lr_extent_for(&model);
    let _layout = PatchLayout::for_field(h, w, model.cfg.ph, model.cfg.pw);
    let lr = adarnet_dataset::synthesize(&case, h, w);
    let cfg = SolverConfig {
        max_iters,
        ..SolverConfig::default()
    };
    let report = run_adarnet_case(
        &model,
        &norm,
        &case,
        &lr,
        LrInput {
            seconds: 0.0,
            iterations: 0,
        },
        cfg,
    );
    println!("{}", report.case_name);
    print!("{}", report.map.ascii());
    println!(
        "physics solve: {} iterations, residual {:.3e}, {:.2}s ({})",
        report.physics.iterations,
        report.physics.final_residual,
        report.physics.seconds,
        if report.physics.converged {
            "converged"
        } else {
            "iteration cap"
        }
    );
    println!(
        "TTC {:.2}s (lr {:.2} + inf {:.4} + ps {:.2}), active cells {}",
        report.ttc_seconds(),
        report.lr.seconds,
        report.inference_seconds,
        report.physics.seconds,
        report.active_cells
    );
    Ok(())
}

fn cmd_info(opts: &Flags) -> Result<(), String> {
    let (model, norm) = load_model(opts)?;
    println!(
        "ADARNet checkpoint: {} input channels, {}x{} patches, {} bins",
        model.cfg.in_channels, model.cfg.ph, model.cfg.pw, model.cfg.bins
    );
    println!(
        "parameters: scorer {}, decoder {} (shared across resolutions)",
        model.scorer.num_params(),
        model.decoder.num_params()
    );
    println!("normalization lo {:?} hi {:?}", norm.lo, norm.hi);
    Ok(())
}

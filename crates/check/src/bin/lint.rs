//! `cargo run -p check --bin lint [-- --verbose]`
//!
//! Exit codes: 0 = clean (possibly via waivers), 1 = unwaived
//! violations or a stale waiver in allow.toml, 2 = driver error (I/O,
//! malformed allow.toml).

use check::lint::{run_lint, workspace_root};

fn main() {
    let verbose = std::env::args().any(|a| a == "--verbose" || a == "-v");
    let root = workspace_root();
    match run_lint(&root) {
        Ok(report) => {
            let (text, code) = report.render(verbose);
            print!("{text}");
            std::process::exit(code);
        }
        Err(e) => {
            eprintln!("lint: error: {e}");
            std::process::exit(2);
        }
    }
}

//! Workspace lint driver: walks first-party sources, applies the rule
//! families from [`crate::rules`], screens findings through
//! `check/allow.toml`, and reports.
//!
//! Scope policy (documented in DESIGN.md §9):
//!
//! * every first-party crate under `crates/*/src` plus the root
//!   workspace library `src/` is linted;
//! * `src/bin/` CLI entry points are exempt — a `main` that `expect`s
//!   its argv is fine, libraries are not;
//! * `vendor/` stand-ins and `target/` are never scanned;
//! * [`rules::RULE_LOSSY_CAST`] applies to the numeric kernel crates
//!   (`nn`, `tensor`, `cfd`); [`rules::RULE_LOCK_ORDER`] to the
//!   concurrent serving crate (`serve`);
//! * [`rules::RULE_NO_ALLOC`] is per-file, not per-crate: it applies to
//!   the designated hot-path kernel files ([`NO_ALLOC_FILES`]), where
//!   every buffer must come from the `adarnet_tensor::workspace` pool;
//! * [`rules::RULE_NO_PRINTLN`] applies to every linted library file:
//!   libraries report through the obs layer or typed returns, never by
//!   printing (`src/bin/` and test regions are already out of scope);
//! * [`rules::RULE_UNCHECKED_ARITH`] is per-file: it applies to the
//!   wire-parse files ([`UNCHECKED_ARITH_FILES`]), where lengths are
//!   attacker-controlled;
//! * [`rules::RULE_RELAXED_ORDERING`] applies to every crate except
//!   `obs` ([`RELAXED_ORDERING_EXEMPT_CRATE`]); surviving uses carry
//!   per-site justifications in `check/allow.toml`;
//! * [`rules::RULE_UNSAFE_CODE`] applies to every crate: the workspace
//!   denies `unsafe_code`, and the files that opt out of that deny (the
//!   AVX2 micro-kernels, the aligned workspace buffer) must justify
//!   every `unsafe` site with a waiver in `check/allow.toml`;
//! * [`rules::RULE_SPAN_REGISTRY`] applies to every crate, in two
//!   parts: per file, every observable-name literal (`span!` sites,
//!   `trace::arena().begin/record` names, `RejectReason` wire tags)
//!   must be registered in `adarnet_obs::names`; across the tree, each
//!   `span!` site name must be unique — a deliberate second site
//!   feeding the same histogram carries a waiver arguing the stages are
//!   genuinely the same.

use std::fs;
use std::path::{Path, PathBuf};

use crate::allow::{parse_allowlist, screen, Waiver};
use crate::rules::{lint_source, span_macro_sites, Finding, RuleSet, RULE_SPAN_REGISTRY};

/// Crates whose float→int casts index grids and tensors.
const LOSSY_CAST_CRATES: &[&str] = &["nn", "tensor", "cfd"];
/// Crates with cross-thread locking.
const LOCK_ORDER_CRATES: &[&str] = &["serve", "net"];
/// Hot-path kernel files (repo-relative) where allocating constructors
/// are banned outright — buffers come from the workspace pool so the
/// zero-allocation inference contract cannot silently regress.
const NO_ALLOC_FILES: &[&str] = &[
    "crates/nn/src/kernels.rs",
    "crates/nn/src/device/driver.rs",
    "crates/nn/src/device/cpu_scalar.rs",
    "crates/nn/src/device/cpu_simd.rs",
];
/// Wire-parse files (repo-relative) where bare `+`/`*` on lengths is
/// banned — these are the only places attacker-controlled sizes enter
/// the process, so overflow handling must be spelled out (or waived
/// with a bound argument, e.g. `MAX_FRAME` gating upstream).
const UNCHECKED_ARITH_FILES: &[&str] = &["crates/net/src/frame.rs", "crates/net/src/proto.rs"];
/// The one crate allowed bare `Ordering::Relaxed`: its metrics cells
/// and trace-slot probe keys are statistics or hints a lock arbitrates.
/// Everywhere else each use needs a written waiver.
const RELAXED_ORDERING_EXEMPT_CRATE: &str = "obs";

/// Aggregate outcome of a lint run.
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings not covered by any waiver.
    pub violations: Vec<Finding>,
    /// Findings covered by a waiver, with that waiver.
    pub waived: Vec<(Finding, Waiver)>,
    /// Waivers that matched nothing.
    pub unused_waivers: Vec<Waiver>,
}

/// Driver failure (I/O or a malformed allowlist), distinct from lint
/// findings.
#[derive(Debug)]
pub enum LintError {
    /// Filesystem problem while walking or reading.
    Io(PathBuf, std::io::Error),
    /// `check/allow.toml` is missing or malformed.
    Allowlist(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            LintError::Allowlist(m) => write!(f, "{m}"),
        }
    }
}

/// Locate the workspace root from the check crate's manifest dir.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Run the full lint over the workspace at `root`.
pub fn run_lint(root: &Path) -> Result<LintReport, LintError> {
    let allow_path = root.join("check").join("allow.toml");
    let allow_src = fs::read_to_string(&allow_path)
        .map_err(|e| LintError::Allowlist(format!("{}: {e}", allow_path.display())))?;
    let waivers = parse_allowlist(&allow_src).map_err(|e| LintError::Allowlist(e.to_string()))?;

    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    let mut macro_sites: Vec<SpanMacroSite> = Vec::new();
    for (dir, crate_name) in lint_targets(root)? {
        let rules = rule_set_for(&crate_name);
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        for file in files {
            let src = fs::read_to_string(&file).map_err(|e| LintError::Io(file.clone(), e))?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            findings.extend(lint_source(&rel, &src, rules_for_file(rules, &rel)));
            for (line, name) in span_macro_sites(&src) {
                let line_text = src
                    .lines()
                    .nth(line.saturating_sub(1))
                    .map(str::trim)
                    .unwrap_or_default()
                    .to_string();
                macro_sites.push(SpanMacroSite {
                    path: rel.clone(),
                    line,
                    name,
                    line_text,
                });
            }
            files_scanned += 1;
        }
    }
    findings.extend(duplicate_span_sites(&mut macro_sites));
    findings.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));

    let screened = screen(findings, &waivers);
    let waived = screened
        .waived
        .into_iter()
        .map(|(f, i)| (f, waivers[i].clone()))
        .collect();
    let unused_waivers = screened
        .unused
        .into_iter()
        .map(|i| waivers[i].clone())
        .collect();
    Ok(LintReport {
        files_scanned,
        violations: screened.violations,
        waived,
        unused_waivers,
    })
}

/// `(source dir, crate name)` pairs to lint: each `crates/<name>/src`
/// plus the workspace root library as crate `"adarnet-repro"`.
fn lint_targets(root: &Path) -> Result<Vec<(PathBuf, String)>, LintError> {
    let crates_dir = root.join("crates");
    let mut targets = Vec::new();
    let entries = fs::read_dir(&crates_dir).map_err(|e| LintError::Io(crates_dir.clone(), e))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    for name in names {
        let src = crates_dir.join(&name).join("src");
        if src.is_dir() {
            targets.push((src, name));
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        targets.push((root_src, "adarnet-repro".into()));
    }
    Ok(targets)
}

fn rule_set_for(crate_name: &str) -> RuleSet {
    RuleSet {
        core_rules: true,
        lossy_cast: LOSSY_CAST_CRATES.contains(&crate_name),
        lock_order: LOCK_ORDER_CRATES.contains(&crate_name),
        no_alloc: false,
        no_println: true,
        unchecked_arith: false,
        relaxed_ordering: crate_name != RELAXED_ORDERING_EXEMPT_CRATE,
        unsafe_code: true,
        span_registry: true,
    }
}

/// One non-test `span!` site, accumulated across the walk for the
/// cross-file uniqueness pass.
struct SpanMacroSite {
    path: PathBuf,
    line: usize,
    name: String,
    line_text: String,
}

/// Flag every `span!` site whose name already appeared at an earlier
/// `(path, line)` — each span name is one histogram, so a second site
/// must argue (via waiver) that it times the same logical stage.
fn duplicate_span_sites(sites: &mut [SpanMacroSite]) -> Vec<Finding> {
    sites.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    let mut first: std::collections::HashMap<&str, (&Path, usize)> =
        std::collections::HashMap::new();
    let mut out = Vec::new();
    for site in sites.iter() {
        match first.get(site.name.as_str()) {
            Some((fp, fl)) => out.push(Finding {
                rule: RULE_SPAN_REGISTRY,
                path: site.path.clone(),
                line: site.line,
                message: format!(
                    "duplicate span! site for \"{}\" (first at {}:{fl}) — \
                     span names are one histogram each; waive only if the \
                     stages are genuinely the same",
                    site.name,
                    fp.display()
                ),
                line_text: site.line_text.clone(),
            }),
            None => {
                first.insert(&site.name, (&site.path, site.line));
            }
        }
    }
    out
}

/// Specialize a crate's rule set for one file: the no-alloc and
/// unchecked-arith rules are scoped to designated files only.
fn rules_for_file(base: RuleSet, rel: &Path) -> RuleSet {
    RuleSet {
        no_alloc: NO_ALLOC_FILES.iter().any(|f| rel == Path::new(f)),
        unchecked_arith: UNCHECKED_ARITH_FILES.iter().any(|f| rel == Path::new(f)),
        ..base
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            // CLI entry points are exempt (see module docs).
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

impl LintReport {
    /// Render the report to stderr-style text; returns the process exit
    /// code (0 = clean or fully waived, 1 = violations remain).
    pub fn render(&self, verbose: bool) -> (String, i32) {
        let mut out = String::new();
        for f in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    {}\n",
                f.path.display(),
                f.line,
                f.rule,
                f.message,
                f.line_text
            ));
        }
        if verbose {
            for (f, w) in &self.waived {
                out.push_str(&format!(
                    "{}:{}: [{}] waived (allow.toml:{}: {})\n",
                    f.path.display(),
                    f.line,
                    f.rule,
                    w.line,
                    w.reason
                ));
            }
        }
        for w in &self.unused_waivers {
            out.push_str(&format!(
                "warning: allow.toml:{}: waiver for `{}` matched nothing (stale?)\n",
                w.line, w.rule
            ));
        }
        out.push_str(&format!(
            "lint: {} files scanned, {} violation(s), {} waived, {} stale waiver(s)\n",
            self.files_scanned,
            self.violations.len(),
            self.waived.len(),
            self.unused_waivers.len()
        ));
        let code = if self.violations.is_empty() { 0 } else { 1 };
        (out, code)
    }
}

#[allow(unused_imports)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_points_at_repo() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file(), "{}", root.display());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn rule_scoping_matches_policy() {
        assert!(rule_set_for("nn").lossy_cast);
        assert!(rule_set_for("serve").lock_order);
        assert!(rule_set_for("net").lock_order);
        assert!(!rule_set_for("serve").lossy_cast);
        assert!(!rule_set_for("core").lock_order);
        assert!(rule_set_for("core").core_rules);
        // no-alloc is per-file: only the designated kernel files get it
        // (the dispatch façade plus both device kernel planes).
        let nn = rule_set_for("nn");
        assert!(rules_for_file(nn, Path::new("crates/nn/src/kernels.rs")).no_alloc);
        assert!(rules_for_file(nn, Path::new("crates/nn/src/device/driver.rs")).no_alloc);
        assert!(rules_for_file(nn, Path::new("crates/nn/src/device/cpu_scalar.rs")).no_alloc);
        assert!(rules_for_file(nn, Path::new("crates/nn/src/device/cpu_simd.rs")).no_alloc);
        assert!(!rules_for_file(nn, Path::new("crates/nn/src/device/mod.rs")).no_alloc);
        assert!(!rules_for_file(nn, Path::new("crates/nn/src/model.rs")).no_alloc);
        assert!(rules_for_file(nn, Path::new("crates/nn/src/kernels.rs")).lossy_cast);
        // unchecked-arith is per-file: only the wire-parse files get it.
        let net = rule_set_for("net");
        assert!(rules_for_file(net, Path::new("crates/net/src/frame.rs")).unchecked_arith);
        assert!(rules_for_file(net, Path::new("crates/net/src/proto.rs")).unchecked_arith);
        assert!(!rules_for_file(net, Path::new("crates/net/src/server.rs")).unchecked_arith);
        // relaxed-ordering applies everywhere except the obs crate.
        assert!(rule_set_for("serve").relaxed_ordering);
        assert!(rule_set_for("net").relaxed_ordering);
        assert!(!rule_set_for("obs").relaxed_ordering);
        // unsafe-code applies everywhere: opting out of the workspace
        // deny never opts out of the waiver requirement.
        assert!(rule_set_for("nn").unsafe_code);
        assert!(rule_set_for("tensor").unsafe_code);
        assert!(rule_set_for("obs").unsafe_code);
        // span-registry applies everywhere: any crate can record a span
        // or map a reject tag, and every name must be registered.
        assert!(rule_set_for("obs").span_registry);
        assert!(rule_set_for("serve").span_registry);
        assert!(rule_set_for("cfd").span_registry);
    }

    #[test]
    fn duplicate_span_sites_flags_later_sites_only() {
        let mk = |path: &str, line: usize, name: &str| SpanMacroSite {
            path: PathBuf::from(path),
            line,
            name: name.into(),
            line_text: format!("span!(\"{name}\")"),
        };
        let mut sites = vec![
            mk("crates/b/src/x.rs", 10, "stage_decoder"),
            mk("crates/a/src/y.rs", 5, "stage_decoder"),
            mk("crates/a/src/y.rs", 9, "serve_infer"),
        ];
        let dups = duplicate_span_sites(&mut sites);
        // After (path, line) ordering, a/y.rs:5 is the canonical site;
        // b/x.rs:10 is the duplicate; serve_infer is unique.
        assert_eq!(dups.len(), 1);
        assert_eq!(dups[0].path, PathBuf::from("crates/b/src/x.rs"));
        assert_eq!(dups[0].line, 10);
        assert!(dups[0].message.contains("crates/a/src/y.rs:5"));
    }

    #[test]
    fn full_workspace_lint_is_clean() {
        // The real acceptance gate, also runnable as a plain unit test:
        // every finding in the tree is either fixed or explicitly waived.
        let report = run_lint(&workspace_root()).expect("lint driver must run");
        let rendered = report.render(true).0;
        assert!(
            report.violations.is_empty(),
            "unwaived lint violations:\n{rendered}"
        );
        assert!(report.files_scanned > 40, "walker found too few files");
    }
}

//! Workspace lint driver: walks first-party sources, applies the
//! [`crate::rules::RULES`] rows in scope for each file, screens findings
//! through `check/allow.toml`, and reports.
//!
//! Scope policy (documented in DESIGN.md §9.1):
//!
//! * every first-party crate under `crates/*/src` plus the root
//!   workspace library `src/` is linted; each rule's
//!   [`Scope`](crate::rules::Scope) narrows that to crates or files;
//! * `src/bin/` CLI entry points are exempt — a `main` that `expect`s
//!   its argv is fine, libraries are not;
//! * `vendor/` stand-ins and `target/` are never scanned;
//! * every linted `lib.rs` must carry [`LIB_ROOT_DENY`], so panic-free
//!   and print-free library code is the compiler's check and a new
//!   crate cannot opt out by omission;
//! * each of the [`WIRE_PARSE_FILES`] must carry [`WIRE_ARITH_DENY`],
//!   so arithmetic where attacker-controlled sizes enter is clippy's
//!   `arithmetic_side_effects` check;
//! * across the tree, each `span!` site name must be unique — a
//!   deliberate second site feeding the same histogram carries a waiver
//!   arguing the stages are genuinely the same.

use std::fs;
use std::path::{Path, PathBuf};

use crate::allow::{parse_allowlist, screen, Waiver};
use crate::lexer::tokenize;
use crate::rules::{lint_source, span_macro_sites, Finding, SPAN_REGISTRY};

/// The attribute every linted library root carries: clippy's restriction
/// lints for panics and stdio, denied outside test builds. Bins are
/// separate crate roots and test builds drop the deny, so the scope is
/// library code only. Sites that keep a panic say why with
/// `#[expect(<lint>, reason = "...")]`.
pub const LIB_ROOT_DENY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, \
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::unimplemented, \
    clippy::print_stdout, clippy::print_stderr))]";

/// The attribute each of the [`WIRE_PARSE_FILES`] carries: no
/// arithmetic that can overflow or panic outside test builds. Sites
/// that keep a bare operator argue the bound with
/// `#[expect(clippy::arithmetic_side_effects, reason = "...")]`.
pub const WIRE_ARITH_DENY: &str = "#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]";

/// The files where attacker-controlled sizes enter the process.
pub const WIRE_PARSE_FILES: [&str; 2] = ["crates/net/src/frame.rs", "crates/net/src/proto.rs"];

/// Rule id of the library-root and wire-parse attribute checks.
const COMPILER_LINTS: &str = "compiler-lints";

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
    for file in WIRE_PARSE_FILES {
        findings.extend(missing_attribute(
            root,
            &root.join(file),
            WIRE_ARITH_DENY,
            "wire-parse file does not deny clippy::arithmetic_side_effects",
        ));
    }
    for (dir, crate_name) in lint_targets(root)? {
        findings.extend(missing_attribute(
            root,
            &dir.join("lib.rs"),
            LIB_ROOT_DENY,
            "library root does not deny the clippy panic and print lints",
        ));
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        for file in files {
            let src = fs::read_to_string(&file).map_err(|e| LintError::Io(file.clone(), e))?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            findings.extend(lint_source(&rel, &src, |scope| {
                scope.covers(&crate_name, &rel)
            }));
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

/// A [`COMPILER_LINTS`] finding unless `file` carries `attribute`.
fn missing_attribute(root: &Path, file: &Path, attribute: &str, message: &str) -> Option<Finding> {
    if fs::read_to_string(file).is_ok_and(|src| carries(&src, attribute)) {
        return None;
    }
    Some(Finding {
        rule: COMPILER_LINTS,
        path: file.strip_prefix(root).unwrap_or(file).to_path_buf(),
        line: 1,
        message: message.into(),
        line_text: attribute.into(),
    })
}

/// Whether `src` carries `attribute` outside a comment, however rustfmt
/// laid it out.
fn carries(src: &str, attribute: &str) -> bool {
    let squash = |s: &str| {
        let toks = tokenize(s).into_iter().map(|t| t.text);
        toks.collect::<String>().replace(",)", ")")
    };
    squash(src).contains(&squash(attribute))
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
                rule: SPAN_REGISTRY,
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
    /// code (0 = clean or fully waived, 1 = violations or stale waivers
    /// remain).
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
                "allow.toml:{}: stale waiver for `{}` matched nothing (delete it)\n",
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
        let clean = self.violations.is_empty() && self.unused_waivers.is_empty();
        let code = if clean { 0 } else { 1 };
        (out, code)
    }
}

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
    fn library_roots_must_deny_the_compiler_lints() {
        let formatted = "//! docs\n\n#![cfg_attr(\n    not(test),\n    deny(\n        \
                         clippy::unwrap_used,\n        clippy::expect_used,\n        \
                         clippy::panic,\n        clippy::unreachable,\n        \
                         clippy::unimplemented,\n        clippy::print_stdout,\n        \
                         clippy::print_stderr\n    )\n)]\n\npub mod x;\n";
        assert!(carries(formatted, LIB_ROOT_DENY));
        assert!(!carries(
            &formatted.replace("        clippy::print_stderr\n", ""),
            LIB_ROOT_DENY
        ));
        assert!(!carries("pub mod x;\n", LIB_ROOT_DENY));
        assert!(!carries(&formatted.replace("#![", "// #!["), LIB_ROOT_DENY));
    }

    #[test]
    fn wire_parse_files_must_deny_arithmetic_side_effects() {
        let src = "//! docs\n\n#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]\n";
        assert!(carries(src, WIRE_ARITH_DENY));
        assert!(!carries(&src.replace("not(test), ", ""), WIRE_ARITH_DENY));
        assert!(!carries(&src.replace("#![", "// #!["), WIRE_ARITH_DENY));
        // The driver fails a tree whose proto.rs lost the attribute.
        let root = std::env::temp_dir().join(format!("check-wire-arith-{}", std::process::id()));
        let net = root.join("crates/net/src");
        let written = fs::create_dir_all(&net)
            .and_then(|()| fs::create_dir_all(root.join("check")))
            .and_then(|()| fs::write(root.join("check/allow.toml"), ""))
            .and_then(|()| fs::write(net.join("lib.rs"), LIB_ROOT_DENY))
            .and_then(|()| fs::write(net.join("frame.rs"), src))
            .and_then(|()| fs::write(net.join("proto.rs"), "//! docs\n"));
        let report = written.map(|()| run_lint(&root));
        fs::remove_dir_all(&root).ok();
        let report = report
            .expect("temp tree must be writable")
            .expect("lint driver must run");
        let flagged: Vec<_> = report.violations.iter().map(|f| &f.path).collect();
        assert_eq!(flagged, [Path::new("crates/net/src/proto.rs")]);
    }

    #[test]
    fn a_stale_waiver_fails_the_lint() {
        let report = LintReport {
            files_scanned: 1,
            violations: Vec::new(),
            waived: Vec::new(),
            unused_waivers: vec![Waiver {
                rule: "float-eq".into(),
                path: Some("crates/x/src/y.rs".into()),
                contains: None,
                reason: "gone".into(),
                line: 7,
            }],
        };
        let (text, code) = report.render(false);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("allow.toml:7: stale waiver"), "{text}");
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
        assert!(
            report.unused_waivers.is_empty(),
            "stale waivers:\n{rendered}"
        );
        assert!(report.files_scanned > 40, "walker found too few files");
    }
}

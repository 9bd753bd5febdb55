//! Repo-specific lint rules over token streams: the policies no
//! compiler lint expresses, one [`RULES`] row each (DESIGN.md §9.1
//! says what each guards and why clippy's nearest lint does not fit).
//! Panic-free and print-free library code, justified `unsafe` and
//! overflow-free wire-parse arithmetic are compiler lints; the driver
//! only checks that the files they guard deny them.
//!
//! The rules are token-level heuristics, deliberately conservative in
//! what they flag; anything intentionally kept is waived — with a
//! reason — in `check/allow.toml`.

use std::path::{Path, PathBuf};

use crate::lexer::{test_region_mask, tokenize, Tok, TokKind};

/// Rule id of the registered-and-unique observable-names rule (the
/// driver's cross-file uniqueness pass reports under it too).
pub const SPAN_REGISTRY: &str = "span-registry";

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// The raw source line (for diagnostics and waiver matching).
    pub line_text: String,
}

/// Which linted library files a rule applies to.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Every linted file.
    All,
    /// Every crate except the named one.
    AllBut(&'static str),
    /// The named crates (`crates/<name>`).
    Crates(&'static [&'static str]),
    /// The named repo-relative files.
    Files(&'static [&'static str]),
}

impl Scope {
    /// Whether file `rel` of crate `crate_name` is in scope.
    pub fn covers(self, crate_name: &str, rel: &Path) -> bool {
        match self {
            Scope::All => true,
            Scope::AllBut(name) => crate_name != name,
            Scope::Crates(names) => names.contains(&crate_name),
            Scope::Files(files) => files.iter().any(|f| rel == Path::new(f)),
        }
    }
}

/// A rule's scan over one file: tokens, the test-region mask, the raw
/// lines, and a sink taking `(line, message)` per finding.
pub type Scan = fn(&[Tok], &[bool], &[&str], &mut dyn FnMut(usize, String));

/// Every hand-rolled rule as `(id, scope, scan)`, in report order. The
/// id is what findings and `check/allow.toml` spell.
pub const RULES: [(&str, Scope, Scan); 6] = [
    // No `==`/`!=` against a float literal: a NaN compares false everywhere.
    ("float-eq", Scope::All, scan_float_eq),
    // Float→int casts spell their rounding in the crates that index grids.
    (
        "lossy-cast",
        Scope::Crates(&["nn", "tensor", "cfd"]),
        scan_lossy_cast,
    ),
    // No second lock while a guard is held.
    ("lock-order", Scope::All, scan_lock_order),
    // No allocating constructors in the kernels: buffers come from the
    // workspace pool, so steady-state inference stays allocation-free,
    // and the solver's sweep reuses the scratch its lanes own.
    (
        "no-alloc-in-hot-path",
        Scope::Files(&[
            "crates/nn/src/kernels.rs",
            "crates/nn/src/device/driver.rs",
            "crates/nn/src/device/cpu_scalar.rs",
            "crates/nn/src/device/cpu_simd.rs",
            "crates/cfd/src/sweep.rs",
        ]),
        scan_no_alloc,
    ),
    // `Ordering::Relaxed` argues its case, outside `obs`, whose metrics
    // cells and trace-slot probe keys are statistics or hints a lock
    // arbitrates.
    (
        "relaxed-ordering",
        Scope::AllBut("obs"),
        scan_relaxed_ordering,
    ),
    // Observable names are registered in `adarnet_obs::names`.
    (SPAN_REGISTRY, Scope::All, scan_span_registry),
];

/// Lint one file's source with every rule whose scope `applies`.
pub fn lint_source(path: &Path, src: &str, applies: impl Fn(Scope) -> bool) -> Vec<Finding> {
    let toks = tokenize(src);
    let mask = test_region_mask(&toks);
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (rule, _, scan) in RULES.into_iter().filter(|&(_, scope, _)| applies(scope)) {
        scan(&toks, &mask, &lines, &mut |line, message| {
            out.push(Finding {
                rule,
                path: path.to_path_buf(),
                line,
                message,
                line_text: lines
                    .get(line.saturating_sub(1))
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
            })
        });
    }
    out
}

fn scan_float_eq(toks: &[Tok], mask: &[bool], _: &[&str], push: &mut dyn FnMut(usize, String)) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let prev_float = i > 0 && toks[i - 1].kind == TokKind::Float;
        let next_float = i + 1 < toks.len() && toks[i + 1].kind == TokKind::Float;
        // `x == f32::NAN` / `f64::INFINITY` style constants.
        let next_float_path = i + 1 < toks.len()
            && (toks[i + 1].is_ident("f32") || toks[i + 1].is_ident("f64"))
            && i + 2 < toks.len()
            && toks[i + 2].is_punct("::");
        if prev_float || next_float || next_float_path {
            push(
                t.line,
                format!(
                    "`{}` against a float literal (use <=/>= restructure or an epsilon)",
                    t.text
                ),
            );
        }
    }
}

/// Integer types a float must not be `as`-cast into without an explicit
/// rounding call.
const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];
/// Explicit-rounding methods that make a float→int cast intentional.
const ROUNDING: &[&str] = &["floor", "ceil", "round", "trunc"];
/// Methods whose result is certainly a float (a bare cast after these is
/// a hidden truncation).
const FLOAT_METHODS: &[&str] = &[
    "sqrt",
    "ln",
    "log2",
    "log10",
    "exp",
    "exp2",
    "powf",
    "powi",
    "sin",
    "cos",
    "tan",
    "atan2",
    "hypot",
    "recip",
    "to_degrees",
    "to_radians",
];

fn scan_lossy_cast(toks: &[Tok], mask: &[bool], _: &[&str], push: &mut dyn FnMut(usize, String)) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || !t.is_ident("as") {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        if !(next.kind == TokKind::Ident && INT_TYPES.contains(&next.text.as_str())) {
            continue;
        }
        let Some(prev) = i.checked_sub(1).and_then(|j| toks.get(j)) else {
            continue;
        };
        let flagged = if prev.kind == TokKind::Float {
            true
        } else if prev.is_ident("f32") || prev.is_ident("f64") {
            // `x as f64 as usize`
            true
        } else if prev.is_punct(")") {
            // Method call result: find the callee before the matching `(`.
            match callee_before_close_paren(toks, i - 1) {
                Some(name) if ROUNDING.contains(&name.as_str()) => false,
                Some(name) => FLOAT_METHODS.contains(&name.as_str()),
                None => false,
            }
        } else {
            false
        };
        if flagged {
            push(
                t.line,
                format!(
                    "float value cast to `{}` without .floor()/.ceil()/.round()/.trunc()",
                    next.text
                ),
            );
        }
    }
}

/// For a `)` at token index `close`, return the method name `m` if the
/// call has the shape `.m( ... )`.
fn callee_before_close_paren(toks: &[Tok], close: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut j = close;
    loop {
        if toks[j].is_punct(")") {
            depth += 1;
        } else if toks[j].is_punct("(") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j = j.checked_sub(1)?;
    }
    // toks[j] is the matching `(`; callee is `.name` right before it.
    let name = j.checked_sub(1).map(|k| &toks[k])?;
    let dot = j.checked_sub(2).map(|k| &toks[k])?;
    if name.kind == TokKind::Ident && dot.is_punct(".") {
        Some(name.text.clone())
    } else {
        None
    }
}

/// Lock acquisition shapes recognized by [`scan_lock_order`]:
/// `.lock(` / `.read(` / `.write(` and the poison-tolerant helpers
/// `sync::lock(` / `sync::read(` / `sync::write(`.
/// (`sync::wait*` re-acquires an existing guard and is not a new lock.)
fn acquisition_at(toks: &[Tok], i: usize) -> bool {
    let t = &toks[i];
    if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "lock" | "read" | "write") {
        return false;
    }
    if !(i + 1 < toks.len() && toks[i + 1].is_punct("(")) {
        return false;
    }
    let Some(prev) = i.checked_sub(1).map(|j| &toks[j]) else {
        return false;
    };
    if prev.is_punct(".") {
        return true;
    }
    prev.is_punct("::") && i >= 2 && toks[i - 2].is_ident("sync")
}

struct HeldGuard {
    name: Option<String>,
    depth: usize,
    /// Temporaries (no `let` binding) die at the end of the statement.
    statement_scoped: bool,
    line: usize,
}

fn scan_lock_order(toks: &[Tok], mask: &[bool], _: &[&str], push: &mut dyn FnMut(usize, String)) {
    let mut depth = 0usize;
    let mut guards: Vec<HeldGuard> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
        } else if t.is_punct(";") {
            guards.retain(|g| !(g.statement_scoped && g.depth == depth));
        } else if t.is_ident("fn") {
            // Guards cannot flow into a nested fn item.
            guards.clear();
        } else if t.is_ident("drop") && i + 2 < toks.len() && toks[i + 1].is_punct("(") {
            if toks[i + 2].kind == TokKind::Ident {
                let dropped = toks[i + 2].text.clone();
                guards.retain(|g| g.name.as_deref() != Some(dropped.as_str()));
            }
        } else if !mask[i] && acquisition_at(toks, i) {
            if let Some(held) = guards.last() {
                push(
                    t.line,
                    format!(
                        "lock acquired while guard {} (line {}) is still held — lock-ordering hazard",
                        held.name.as_deref().map(|n| format!("`{n}`")).unwrap_or_else(|| "<temporary>".into()),
                        held.line
                    ),
                );
            }
            // Determine whether this acquisition becomes a held guard:
            // `let g = ....lock();` (binding, lives to end of block) vs a
            // temporary consumed in a longer expression (lives to `;`).
            let binding_name = let_binding_name(toks, i);
            let ends_at_semicolon = acquisition_is_temporary(toks, i);
            guards.push(HeldGuard {
                name: if ends_at_semicolon {
                    None
                } else {
                    binding_name
                },
                depth,
                statement_scoped: ends_at_semicolon,
                line: t.line,
            });
        }
        i += 1;
    }
}

fn scan_relaxed_ordering(
    toks: &[Tok],
    mask: &[bool],
    _: &[&str],
    push: &mut dyn FnMut(usize, String),
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || !t.is_ident("Relaxed") {
            continue;
        }
        let path = i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("Ordering");
        if path {
            push(
                t.line,
                "Ordering::Relaxed outside the obs crate \
                 (justify with a waiver or strengthen the ordering)"
                    .into(),
            );
        }
    }
}

/// Which syntactic shape produced a [`SpanNameSite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanSiteKind {
    /// `span!("name", ...)` — a static span site (one histogram each).
    Macro,
    /// `ctx.begin("name")` / `ctx.record("name", ...)` on a trace
    /// handle — a direct trace-span record sharing a `span!` site's
    /// name.
    TraceCall,
    /// `RejectReason::Variant => "tag"` — a reject-reason wire tag.
    RejectTag,
    /// `counter!("name")` — a process-wide counter.
    Counter,
}

/// One observable-name literal found in non-test source.
#[derive(Debug, Clone)]
pub struct SpanNameSite {
    /// 1-based line of the name literal.
    pub line: usize,
    /// The name string itself.
    pub name: String,
    /// Which shape matched.
    pub kind: SpanSiteKind,
}

/// Content of the `n`-th (0-based) double-quoted string on `line`.
///
/// The lexer drops string contents, so the registry scan recovers the
/// name from the raw source line: the `n`-th `Str` token on a line
/// corresponds to the `n`-th quoted literal in its text. Escapes are
/// unwrapped naively — observable names are plain `[a-z_]` idents, so
/// anything exotic simply fails to match the registry and gets flagged.
fn nth_quoted(line: &str, n: usize) -> Option<String> {
    let chars: Vec<char> = line.chars().collect();
    let mut found = 0usize;
    let mut i = 0;
    while i < chars.len() {
        if chars[i] != '"' {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut s = String::new();
        while j < chars.len() && chars[j] != '"' {
            if chars[j] == '\\' {
                j += 1;
                if let Some(&c) = chars.get(j) {
                    s.push(c);
                }
            } else {
                s.push(chars[j]);
            }
            j += 1;
        }
        if found == n {
            return Some(s);
        }
        found += 1;
        i = j + 1;
    }
    None
}

/// Extract every observable-name literal site from non-test tokens.
///
/// Four shapes are recognized (see [`SpanSiteKind`]); a call whose
/// name argument is not a string literal (e.g. the `span!` macro's own
/// expansion passing `self.site.name`) is deliberately skipped — only
/// literal names can be registry-checked lexically.
pub fn span_name_sites(toks: &[Tok], mask: &[bool], lines: &[&str]) -> Vec<SpanNameSite> {
    let extract = |si: usize| -> Option<(usize, String)> {
        let line = toks[si].line;
        let ord = toks[..si]
            .iter()
            .filter(|t| t.kind == TokKind::Str && t.line == line)
            .count();
        Some((line, nth_quoted(lines.get(line.checked_sub(1)?)?, ord)?))
    };
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        // `span!("name", ...)` / `counter!("name")`
        if (t.text == "span" || t.text == "counter")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Str)
        {
            if let Some((line, name)) = extract(i + 3) {
                out.push(SpanNameSite {
                    line,
                    name,
                    kind: if t.text == "span" {
                        SpanSiteKind::Macro
                    } else {
                        SpanSiteKind::Counter
                    },
                });
            }
            continue;
        }
        // `.begin("name")` / `.record("name", ..)` — the span name is the
        // first argument; a later literal (the structured field) is not
        // a name.
        if (t.text == "begin" || t.text == "record")
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Str)
        {
            if let Some((line, name)) = extract(i + 2) {
                out.push(SpanNameSite {
                    line,
                    name,
                    kind: SpanSiteKind::TraceCall,
                });
            }
            continue;
        }
        // `RejectReason::Variant => "tag"`
        if t.text == "RejectReason"
            && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|t| t.is_punct("=>"))
            && toks.get(i + 4).is_some_and(|t| t.kind == TokKind::Str)
        {
            if let Some((line, name)) = extract(i + 4) {
                out.push(SpanNameSite {
                    line,
                    name,
                    kind: SpanSiteKind::RejectTag,
                });
            }
        }
    }
    out
}

/// Extract non-test `span!` macro sites from raw source: `(line, name)`
/// pairs. Used by the lint driver's cross-file uniqueness pass.
pub fn span_macro_sites(src: &str) -> Vec<(usize, String)> {
    let toks = tokenize(src);
    let mask = test_region_mask(&toks);
    let lines: Vec<&str> = src.lines().collect();
    span_name_sites(&toks, &mask, &lines)
        .into_iter()
        .filter(|s| s.kind == SpanSiteKind::Macro)
        .map(|s| (s.line, s.name))
        .collect()
}

fn scan_span_registry(
    toks: &[Tok],
    mask: &[bool],
    lines: &[&str],
    push: &mut dyn FnMut(usize, String),
) {
    for site in span_name_sites(toks, mask, lines) {
        let (registered, table) = match site.kind {
            SpanSiteKind::Macro | SpanSiteKind::TraceCall => (
                adarnet_obs::names::is_registered_span(&site.name),
                "SPAN_SITES",
            ),
            SpanSiteKind::RejectTag => (
                adarnet_obs::names::is_registered_reject(&site.name),
                "REJECT_REASONS",
            ),
            SpanSiteKind::Counter => (
                adarnet_obs::names::is_registered_counter(&site.name),
                "COUNTERS",
            ),
        };
        if !registered {
            push(
                site.line,
                format!(
                    "\"{}\" is not registered in obs::names::{table} \
                     (register the name there or fix the typo)",
                    site.name
                ),
            );
        }
    }
}

/// Allocating `Vec` constructors banned from hot-path kernel files.
const ALLOC_VEC_METHODS: &[&str] = &["new", "with_capacity"];
/// Allocating `Tensor` constructors banned from hot-path kernel files
/// (the pooled variants `pooled_zeroed` / `pooled_scratch` are the
/// sanctioned replacements).
const ALLOC_TENSOR_METHODS: &[&str] = &["zeros", "full"];

fn scan_no_alloc(toks: &[Tok], mask: &[bool], _: &[&str], push: &mut dyn FnMut(usize, String)) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "vec" && i + 1 < toks.len() && toks[i + 1].is_punct("!") {
            push(
                t.line,
                "vec! allocates in a hot-path kernel file (use the workspace pool)".into(),
            );
            continue;
        }
        if t.text == "to_vec"
            && i > 0
            && toks[i - 1].is_punct(".")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("(")
        {
            push(
                t.line,
                ".to_vec() allocates in a hot-path kernel file (use the workspace pool)".into(),
            );
            continue;
        }
        let banned: &[&str] = match t.text.as_str() {
            "Vec" => ALLOC_VEC_METHODS,
            "Tensor" => ALLOC_TENSOR_METHODS,
            _ => continue,
        };
        if let Some(m) = path_method(toks, i) {
            if banned.contains(&m.text.as_str()) {
                push(
                    m.line,
                    format!(
                        "{}::{} allocates in a hot-path kernel file (use the workspace pool)",
                        t.text, m.text
                    ),
                );
            }
        }
    }
}

/// For a type ident at token `i`, resolve `Type::method` — including the
/// turbofish form `Type::<..>::method` — and return the method token.
fn path_method(toks: &[Tok], i: usize) -> Option<&Tok> {
    let mut j = i + 1;
    if !toks.get(j)?.is_punct("::") {
        return None;
    }
    j += 1;
    if toks.get(j)?.is_punct("<") {
        let mut depth = 0usize;
        loop {
            let t = toks.get(j)?;
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        j += 1;
        if !toks.get(j)?.is_punct("::") {
            return None;
        }
        j += 1;
    }
    let m = toks.get(j)?;
    (m.kind == TokKind::Ident).then_some(m)
}

/// Scan back from an acquisition to the start of its statement; if the
/// statement is a `let`, return the bound identifier.
fn let_binding_name(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return None;
        }
        if t.is_ident("let") {
            let mut k = j + 1;
            while k < i && toks[k].is_ident("mut") {
                k += 1;
            }
            if k < i && toks[k].kind == TokKind::Ident {
                return Some(toks[k].text.clone());
            }
            return None;
        }
    }
    None
}

/// Whether the acquisition's guard is consumed within its statement
/// (method-chained temporary) rather than bound: true when the token
/// after the call's matching `)` is not `;`, once any
/// `.unwrap()` / `.expect(..)` / `.unwrap_or_else(..)` that only
/// unwraps the lock result is skipped.
fn acquisition_is_temporary(toks: &[Tok], i: usize) -> bool {
    // toks[i] is the method ident; toks[i+1] is `(`.
    let mut j = closing_paren(toks, i + 1);
    while toks.get(j + 1).is_some_and(|t| t.is_punct("."))
        && toks.get(j + 2).is_some_and(|t| {
            t.is_ident("unwrap") || t.is_ident("expect") || t.is_ident("unwrap_or_else")
        })
        && toks.get(j + 3).is_some_and(|t| t.is_punct("("))
    {
        j = closing_paren(toks, j + 3);
    }
    // A bound guard (`let g = sync::lock(&m);`) reaches `;`; anything
    // else (`.`, `)`, `,`) keeps it a temporary.
    !matches!(toks.get(j + 1), Some(t) if t.is_punct(";"))
}

/// Index of the `)` matching the `(` at `open` (or the end of the
/// stream if it is unbalanced).
fn closing_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct("(") {
            depth += 1;
        } else if toks[j].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        lint_source(Path::new("x.rs"), src, |_| true)
    }

    /// Whether rule `id` applies to file `rel` of crate `krate`.
    fn applies(id: &str, krate: &str, rel: &str) -> bool {
        RULES
            .iter()
            .any(|&(rule, scope, _)| rule == id && scope.covers(krate, Path::new(rel)))
    }

    #[test]
    fn rule_scoping_matches_policy() {
        let (lossy, lock) = ("lossy-cast", "lock-order");
        assert!(applies(lossy, "nn", "crates/nn/src/kernels.rs"));
        assert!(applies(lock, "serve", "crates/serve/src/lanes.rs"));
        assert!(applies(lock, "net", "crates/net/src/server.rs"));
        assert!(!applies(lossy, "serve", "crates/serve/src/lanes.rs"));
        assert!(applies(lock, "cfd", "crates/cfd/src/solver.rs"));
        assert!(applies("float-eq", "core", "crates/core/src/ranker.rs"));
        assert!(applies("float-eq", "adarnet-repro", "src/lib.rs"));
        // no-alloc is per file: only the designated kernel files get it
        // (the dispatch façade, both device kernel planes, and the
        // solver's sweep but not its driver).
        let alloc = "no-alloc-in-hot-path";
        assert!(applies(alloc, "nn", "crates/nn/src/kernels.rs"));
        assert!(applies(alloc, "nn", "crates/nn/src/device/driver.rs"));
        assert!(applies(alloc, "nn", "crates/nn/src/device/cpu_scalar.rs"));
        assert!(applies(alloc, "nn", "crates/nn/src/device/cpu_simd.rs"));
        assert!(applies(alloc, "cfd", "crates/cfd/src/sweep.rs"));
        assert!(!applies(alloc, "nn", "crates/nn/src/device/mod.rs"));
        assert!(!applies(alloc, "nn", "crates/nn/src/model.rs"));
        assert!(!applies(alloc, "cfd", "crates/cfd/src/solver.rs"));
        // relaxed-ordering applies everywhere except the obs crate.
        let relaxed = "relaxed-ordering";
        assert!(applies(relaxed, "serve", "crates/serve/src/server.rs"));
        assert!(applies(relaxed, "net", "crates/net/src/server.rs"));
        assert!(!applies(relaxed, "obs", "crates/obs/src/metrics.rs"));
        // span-registry applies everywhere: any crate can record a span
        // or map a reject tag, and every name must be registered.
        let span = SPAN_REGISTRY;
        assert!(applies(span, "obs", "crates/obs/src/lib.rs"));
        assert!(applies(span, "serve", "crates/serve/src/server.rs"));
        assert!(applies(span, "cfd", "crates/cfd/src/solver.rs"));
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        findings(src).iter().map(|f| f.rule).collect()
    }

    #[test]
    fn float_eq_flagged_both_sides() {
        let src = "fn f() { if a == 0.0 {} if 1.5 != b {} if c == f32::NAN {} }";
        assert_eq!(rules_of(src), vec!["float-eq", "float-eq", "float-eq"]);
    }

    #[test]
    fn int_eq_not_flagged() {
        let src = "fn f() { if a == 0 {} if n != len {} }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn lossy_cast_flags_bare_float_to_int() {
        let src = "fn f() { let a = 1.5 as usize; let b = x.sqrt() as i32; }";
        assert_eq!(rules_of(src), vec!["lossy-cast", "lossy-cast"]);
    }

    #[test]
    fn rounded_cast_is_allowed() {
        let src = "fn f() { let a = x.floor() as usize; let b = y.round() as i64; }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn int_to_int_cast_is_allowed() {
        let src = "fn f() { let a = n as usize; let b = (n + 1) as u64; }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn second_lock_under_held_guard_flagged() {
        let src = "fn f() { let g = a.lock(); let h = b.lock(); }";
        assert_eq!(rules_of(src), vec!["lock-order"]);
    }

    #[test]
    fn sequential_scopes_are_fine() {
        let src = "fn f() { { let g = a.lock(); } { let h = b.lock(); } }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn dropped_guard_releases() {
        let src = "fn f() { let g = a.lock(); drop(g); let h = b.lock(); }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn statement_temporary_releases_at_semicolon() {
        let src = "fn f() { let x = m.lock().unwrap().len(); let g = b.lock(); }";
        // The temporary dies at the `;`, so the second lock is safe.
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn nested_acquisition_in_one_statement_flagged() {
        let src = "fn f() { let x = a.lock().merge(b.read()); }";
        assert_eq!(rules_of(src), vec!["lock-order"]);
    }

    #[test]
    fn unwrapped_lock_results_are_bound_guards() {
        let src = "fn f() { let g = a.lock().unwrap(); let h = b.lock(); }\n\
                   fn g() { let g = a.read().expect(\"poisoned\"); let h = b.lock(); }\n\
                   fn h() { let g = a.lock().unwrap_or_else(PoisonError::into_inner); \
                   let h = b.write(); }";
        assert_eq!(rules_of(src), vec!["lock-order"; 3]);
    }

    #[test]
    fn sync_helper_acquisitions_are_recognized() {
        let src = "fn f() { let g = sync::lock(&m); let h = sync::write(&l); }";
        assert_eq!(rules_of(src), vec!["lock-order"]);
    }

    #[test]
    fn alloc_constructors_flagged_in_hot_path() {
        let src = "fn f() { let a = vec![0.0; n]; let b = Vec::new(); \
                   let c = Vec::with_capacity(8); let d = x.to_vec(); }";
        assert_eq!(
            rules_of(src),
            vec![
                "no-alloc-in-hot-path",
                "no-alloc-in-hot-path",
                "no-alloc-in-hot-path",
                "no-alloc-in-hot-path"
            ]
        );
    }

    #[test]
    fn tensor_constructors_flagged_including_turbofish() {
        let src = "fn f() { let a = Tensor::zeros(s); let b = Tensor::<F>::zeros(s); \
                   let c = Tensor::full(s, 1.0); }";
        assert_eq!(
            rules_of(src),
            vec![
                "no-alloc-in-hot-path",
                "no-alloc-in-hot-path",
                "no-alloc-in-hot-path"
            ]
        );
    }

    #[test]
    fn pooled_constructors_and_generics_not_flagged() {
        // Pool-backed constructors, `Vec` in type position, and the
        // collect turbofish are all fine — only allocating constructor
        // *calls* are banned.
        let src = "fn f() { let a = Tensor::<F>::pooled_scratch(s); \
                   let p: Vec<(usize, Vec<f32>)> = it.collect::<Vec<_>>(); \
                   let q = Tensor::from_vec(s, buf); }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn alloc_in_cfg_test_is_ignored() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let v = vec![1.0]; \
                   let t = Tensor::zeros(s); } }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn relaxed_ordering_flagged_outside_tests() {
        let src = "fn f() { c.fetch_add(1, Ordering::Relaxed); c.load(Ordering::Relaxed); }";
        let got: Vec<_> = rules_of(src)
            .into_iter()
            .filter(|r| *r == "relaxed-ordering")
            .collect();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn stronger_orderings_and_test_relaxed_not_flagged() {
        let src = "fn f() { c.load(Ordering::Acquire); c.store(1, Ordering::SeqCst); }\n\
                   #[cfg(test)]\nmod tests { fn t() { c.load(Ordering::Relaxed); } }";
        assert!(!rules_of(src).contains(&"relaxed-ordering"));
    }

    #[test]
    fn unregistered_span_macro_name_flagged() {
        let src = "fn f() { let _a = span!(\"bogus_span\"); \
                   let _b = adarnet_obs::span!(\"stage_decoder\", bin = b); }";
        let got: Vec<_> = findings(src)
            .into_iter()
            .filter(|f| f.rule == SPAN_REGISTRY)
            .collect();
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("bogus_span"));
        assert!(got[0].message.contains("SPAN_SITES"));
    }

    #[test]
    fn trace_call_names_are_registry_checked() {
        let src = "fn f() { ctx.record(\"bogus\", ns, \"bin\", 0); \
                   let infer = ctx.begin(\"serve_infer\"); }";
        let got: Vec<_> = findings(src)
            .into_iter()
            .filter(|f| f.rule == SPAN_REGISTRY)
            .collect();
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("bogus"));
    }

    #[test]
    fn reject_tags_are_registry_checked() {
        let src = "fn f(r: RejectReason) -> &'static str { match r { \
                   RejectReason::QueueFull => \"queue_full\", \
                   RejectReason::RateLimited => \"rate_limited\" } }";
        let got: Vec<_> = findings(src)
            .into_iter()
            .filter(|f| f.rule == SPAN_REGISTRY)
            .collect();
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("rate_limited"));
        assert!(got[0].message.contains("REJECT_REASONS"));
    }

    #[test]
    fn counter_names_are_registry_checked() {
        let src = "fn f() { adarnet_obs::counter!(\"bogus_total\").inc(); \
                   counter!(\"nn_infer_split_total\").inc(); }";
        let got: Vec<_> = findings(src)
            .into_iter()
            .filter(|f| f.rule == SPAN_REGISTRY)
            .collect();
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("bogus_total"));
        assert!(got[0].message.contains("COUNTERS"));
    }

    #[test]
    fn non_literal_names_and_test_regions_skipped() {
        // The span! expansion records via a field, not a literal — no
        // name to check lexically; test regions never fire the rule.
        let src = "fn f() { ctx.record(self.site.name, ns, \"bin\", v); }\n\
                   #[cfg(test)]\nmod tests { fn t() { let _s = span!(\"totally_bogus\"); } }";
        assert!(!rules_of(src).contains(&SPAN_REGISTRY));
    }

    #[test]
    fn span_macro_sites_extracts_names_outside_tests() {
        let src = "fn f() { let _a = span!(\"stage_scorer\"); }\n\
                   fn g() { let _b = obs::span!(\"stage_ranker\", bin = 1u64); }\n\
                   #[cfg(test)]\nmod tests { fn t() { let _c = span!(\"obs_test_span\"); } }";
        let sites = span_macro_sites(src);
        assert_eq!(
            sites,
            vec![(1, "stage_scorer".into()), (2, "stage_ranker".into())]
        );
    }

    #[test]
    fn io_read_method_on_chain_is_tolerated() {
        // `.read(` on a chained temporary is treated as a lock guard until
        // the semicolon, but alone it flags nothing.
        let src = "fn f() { let n = file.read(&mut buf); }";
        assert!(rules_of(src).is_empty());
    }
}

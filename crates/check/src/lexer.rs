//! A minimal Rust lexer for the lint pass.
//!
//! The lint rules need token streams, not syntax trees: "`==` next to
//! a float literal outside test code" or "a second lock while a guard
//! is held" are decidable from tokens plus brace tracking. A full parser (syn) is neither
//! available offline nor necessary. The lexer therefore handles exactly
//! the lexical features that would otherwise cause false positives:
//! line/block/doc comments, string/char/byte/raw-string literals,
//! lifetimes vs char literals, and numeric literal classification
//! (int vs float) — everything else is an identifier or punctuation
//! token carrying its source line for diagnostics.

/// Token classification, as coarse as the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (including hex/octal/binary).
    Int,
    /// Float literal (`1.0`, `2e-3`, `1f32`, ...).
    Float,
    /// String literal of any flavor (content dropped).
    Str,
    /// Char or byte literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation; multi-char operators are fused (`==`, `::`, ...).
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Kind of token.
    pub kind: TokKind,
    /// Token text (empty for string literals).
    pub text: String,
    /// 1-based line number.
    pub line: usize,
}

impl Tok {
    /// Whether this token is the exact punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }

    /// Whether this token is the exact identifier `id`.
    pub fn is_ident(&self, id: &str) -> bool {
        self.kind == TokKind::Ident && self.text == id
    }
}

/// Two-character operators fused into single tokens (order matters:
/// longest match first is unnecessary because all entries are length 2).
const TWO_CHAR_OPS: &[&str] = &[
    "==", "!=", "<=", ">=", "&&", "||", "::", "..", "->", "=>", "+=", "-=", "*=", "/=", "%=", "^=",
    "|=", "&=", "<<", ">>",
];

/// Tokenize Rust source. Unterminated literals are tolerated (the rest
/// of the file is consumed) — the lint must never panic on odd input.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let n = b.len();

    macro_rules! bump_lines {
        ($range:expr) => {
            for k in $range {
                if b[k] == '\n' {
                    line += 1;
                }
            }
        };
    }

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also //! and ///).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Nested block comment.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            let start = i;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            bump_lines!(start..i.min(n));
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br#"..."#, any # count.
        if (c == 'r' || c == 'b') && raw_string_len(&b[i..]).is_some() {
            let len = raw_string_len(&b[i..]).unwrap_or(n - i);
            bump_lines!(i..i + len);
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
            i += len;
            continue;
        }
        // Plain or byte string.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let start_line = line;
            i += if c == 'b' { 2 } else { 1 };
            while i < n {
                match b[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line: start_line,
            });
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let is_lifetime = i + 1 < n
                && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                && !(i + 2 < n && b[i + 2] == '\'');
            if is_lifetime {
                let mut j = i + 1;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: b[i..j].iter().collect(),
                    line,
                });
                i = j;
            } else {
                // Char literal (possibly escaped).
                let mut j = i + 1;
                while j < n {
                    match b[j] {
                        '\\' => j += 2,
                        '\'' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                i = j;
            }
            continue;
        }
        // Numeric literal.
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            if c == '0' && i + 1 < n && matches!(b[i + 1], 'x' | 'o' | 'b') {
                i += 2;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            } else {
                while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                    i += 1;
                }
                // Fractional part: a dot followed by a digit (so `1..x`
                // and `1.max()` stay integers).
                if i + 1 < n && b[i] == '.' && b[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                        i += 1;
                    }
                } else if i < n
                    && b[i] == '.'
                    && !(i + 1 < n
                        && (b[i + 1] == '.' || b[i + 1].is_alphabetic() || b[i + 1] == '_'))
                {
                    // Trailing-dot float like `1.`.
                    is_float = true;
                    i += 1;
                }
                // Exponent.
                if i < n && (b[i] == 'e' || b[i] == 'E') {
                    let mut j = i + 1;
                    if j < n && (b[j] == '+' || b[j] == '-') {
                        j += 1;
                    }
                    if j < n && b[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                            i += 1;
                        }
                    }
                }
                // Type suffix.
                let suf_start = i;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                let suffix: String = b[suf_start..i].iter().collect();
                if suffix == "f32" || suffix == "f64" {
                    is_float = true;
                }
            }
            toks.push(Tok {
                kind: if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Identifier / keyword (including r#ident raw identifiers).
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Punctuation, fusing known two-char operators.
        if i + 1 < n {
            let two: String = b[i..i + 2].iter().collect();
            if TWO_CHAR_OPS.contains(&two.as_str()) {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: two,
                    line,
                });
                i += 2;
                continue;
            }
        }
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    toks
}

/// If `rest` starts a raw (byte) string, its total char length.
fn raw_string_len(rest: &[char]) -> Option<usize> {
    let mut i = 0;
    if rest.first() == Some(&'b') {
        i += 1;
    }
    if rest.get(i) != Some(&'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0;
    while rest.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if rest.get(i) != Some(&'"') {
        return None;
    }
    i += 1;
    // Scan for `"` followed by `hashes` hashes.
    while i < rest.len() {
        if rest[i] == '"' {
            let mut k = 0;
            while k < hashes && rest.get(i + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                return Some(i + 1 + hashes);
            }
        }
        i += 1;
    }
    Some(rest.len())
}

/// Mark tokens that belong to test-only code: items annotated with
/// `#[test]`, `#[cfg(test)]` (or any `cfg(...)` attribute mentioning
/// `test`), including the entire body of `#[cfg(test)] mod tests { .. }`.
pub fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[") {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1;
            let mut mentions_test = false;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                } else if toks[j].is_ident("test") {
                    mentions_test = true;
                }
                j += 1;
            }
            if mentions_test {
                // Skip further attributes, then mark the item. A `;`
                // before any `{` means a brace-less item (e.g. a `use`):
                // nothing to mark beyond the attribute itself.
                let mut k = j;
                while k < toks.len() && toks[k].is_punct("#") {
                    // Skip the chained attribute.
                    let mut d = 0;
                    k += 1;
                    if k < toks.len() && toks[k].is_punct("[") {
                        d = 1;
                        k += 1;
                        while k < toks.len() && d > 0 {
                            if toks[k].is_punct("[") {
                                d += 1;
                            } else if toks[k].is_punct("]") {
                                d -= 1;
                            }
                            k += 1;
                        }
                    }
                    let _ = d;
                }
                let mut body_start = None;
                let mut m = k;
                while m < toks.len() {
                    if toks[m].is_punct(";") {
                        break;
                    }
                    if toks[m].is_punct("{") {
                        body_start = Some(m);
                        break;
                    }
                    m += 1;
                }
                if let Some(open) = body_start {
                    let mut d = 1;
                    let mut e = open + 1;
                    while e < toks.len() && d > 0 {
                        if toks[e].is_punct("{") {
                            d += 1;
                        } else if toks[e].is_punct("}") {
                            d -= 1;
                        }
                        e += 1;
                    }
                    for slot in mask.iter_mut().take(e).skip(i) {
                        *slot = true;
                    }
                    i = e;
                    continue;
                }
                // Brace-less item: mark attribute through the `;`.
                for slot in mask.iter_mut().take(m + 1).skip(i) {
                    *slot = true;
                }
                i = m + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_disappear() {
        let toks = tokenize("a // unwrap()\n/* == */ b \"x == 0.0\" 'c' 'a");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["a", "b"]);
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn float_vs_int_classification() {
        let toks = tokenize("1 1.0 2e3 0x10 1f32 7usize 1..3 x.0");
        let kinds: Vec<TokKind> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Int,   // 1
                TokKind::Float, // 1.0
                TokKind::Float, // 2e3
                TokKind::Int,   // 0x10
                TokKind::Float, // 1f32
                TokKind::Int,   // 7usize
                TokKind::Int,   // 1 (of 1..3)
                TokKind::Int,   // 3
                TokKind::Int,   // 0 (tuple index)
            ]
        );
    }

    #[test]
    fn raw_strings_are_single_tokens() {
        let toks = tokenize("r#\"unwrap() == 0.0\"# x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokKind::Str);
        assert!(toks[1].is_ident("x"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = tokenize("&'a str 'b' '\\n'");
        assert_eq!(toks[1].kind, TokKind::Lifetime);
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = tokenize("a\nb\n\nc");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn tail() {}";
        let toks = tokenize(src);
        let mask = test_region_mask(&toks);
        for (t, &m) in toks.iter().zip(&mask) {
            if t.is_ident("unwrap") {
                assert!(m, "unwrap inside cfg(test) must be masked");
            }
            if t.is_ident("lib") || t.is_ident("tail") {
                assert!(!m, "library items must not be masked");
            }
        }
    }

    #[test]
    fn test_attribute_masks_single_fn() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn real() { }";
        let toks = tokenize(src);
        let mask = test_region_mask(&toks);
        for (t, &m) in toks.iter().zip(&mask) {
            if t.is_ident("unwrap") {
                assert!(m);
            }
            if t.is_ident("real") {
                assert!(!m);
            }
        }
    }
}

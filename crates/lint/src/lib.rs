//! # sf-lint — the determinism lint behind the simulation contract
//!
//! `sf-sim` documents a determinism contract: identical inputs produce
//! identical record streams, bit for bit. Three things silently break
//! it — unordered hash-container iteration (`HashMap` / `HashSet`
//! order varies per process because of `RandomState`), wall-clock
//! reads inside simulation state, and library-code `unwrap()` whose
//! panic message depends on incidental state. This crate is a
//! self-contained, dependency-free token scanner that rejects all
//! three across the library crates and the plan parser
//! ([`DETERMINISM_CRATES`]: `core`, `flow`, `routing`, `sim`,
//! `verify`, `compat/toml`).
//!
//! The scanner is deliberately *syntactic*, not semantic: it strips
//! comments, string and char literals (so prose mentioning
//! `Instant::now` is fine), skips `#[cfg(test)]` items by brace
//! tracking (tests may use whatever they like), and matches the
//! remaining source against three token rules. Escape hatch, for the
//! rare legitimate use:
//!
//! ```text
//! // sf-lint: allow(wall-clock): operator-facing progress meter only
//! let t0 = Instant::now();
//! ```
//!
//! The directive covers its own line and the next, and **must** carry
//! a reason after the colon — a bare allow is itself a finding.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates bound by the determinism contract, as paths under `crates/`
/// (their `src/` trees are scanned). `compat/toml` is the plan parser:
/// every record depends on what it reads, and it reads user input.
/// `bench`, `topo`, `graph` and the other compat shims are exempt: they
/// either run before the simulation starts or are vendored stand-ins.
pub const DETERMINISM_CRATES: &[&str] =
    &["core", "flow", "routing", "sim", "verify", "compat/toml"];

/// The three lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `HashMap` / `HashSet`: iteration order is per-process random.
    HashContainer,
    /// `Instant::now` / `SystemTime`: wall-clock reads in sim state.
    WallClock,
    /// Bare `.unwrap()` in library code (`.expect("invariant")` is
    /// allowed — it documents *why* the value exists).
    Unwrap,
}

impl Rule {
    /// The name used in `sf-lint: allow(<name>)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashContainer => "hash-container",
            Rule::WallClock => "wall-clock",
            Rule::Unwrap => "unwrap",
        }
    }

    fn from_name(s: &str) -> Option<Rule> {
        match s {
            "hash-container" => Some(Rule::HashContainer),
            "wall-clock" => Some(Rule::WallClock),
            "unwrap" => Some(Rule::Unwrap),
            _ => None,
        }
    }

    fn explain(self) -> &'static str {
        match self {
            Rule::HashContainer => {
                "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet \
                 or dense Vec indexing"
            }
            Rule::WallClock => {
                "wall-clock reads (Instant::now/SystemTime) must not influence simulation state"
            }
            Rule::Unwrap => "bare unwrap() in library code; use expect(\"<invariant>\")",
        }
    }
}

/// One lint finding: a banned token outside tests without an allow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule, or `None` for a malformed allow directive.
    pub rule: Option<Rule>,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = self.rule.map_or("allow-directive", Rule::name);
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            tag,
            self.message
        )
    }
}

/// An `sf-lint: allow(rule): reason` directive found in a comment.
#[derive(Debug, Clone)]
struct Allow {
    line: usize,
    rule: Option<Rule>,
    has_reason: bool,
    raw_rule: String,
}

/// Replaces comments, string literals and char literals with spaces,
/// preserving newlines (so line numbers survive), and collects
/// `sf-lint:` directives out of the comment text before discarding it.
fn mask_source(src: &str) -> (String, Vec<Allow>) {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut allows = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    // Pushes `n` bytes of blank space, keeping newlines.
    macro_rules! blank {
        ($from:expr, $to:expr) => {
            for k in $from..$to {
                if b[k] == b'\n' {
                    out.push(b'\n');
                    line += 1;
                } else {
                    out.push(b' ');
                }
            }
        };
    }
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map_or(b.len(), |p| i + p);
                scan_allow(&src[i..end], line, &mut allows);
                blank!(i, end);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comments, as in Rust.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                scan_allow(&src[i..j], line, &mut allows);
                blank!(i, j);
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() {
                    match b[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                blank!(i, j);
                i = j;
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string r"..." / r#"..."# / r##"..."## …
                let mut hashes = 0usize;
                let mut j = i + 1;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    j += 1;
                    let closer: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    while j < b.len() && !b[j..].starts_with(&closer) {
                        j += 1;
                    }
                    j = (j + closer.len()).min(b.len());
                    blank!(i, j);
                    i = j;
                } else {
                    // `r#ident` raw identifier — not a string.
                    out.push(b[i]);
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime tick: a literal closes
                // within a couple of chars (`'a'`, `'\\n'`, `'\\u{..}'`).
                let lit_end = if i + 1 < b.len() && b[i + 1] == b'\\' {
                    let mut j = i + 2;
                    while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
                        j += 1;
                    }
                    (j < b.len() && b[j] == b'\'').then_some(j + 1)
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    Some(i + 3)
                } else {
                    None
                };
                match lit_end {
                    Some(j) => {
                        blank!(i, j);
                        i = j;
                    }
                    None => {
                        // Lifetime: keep the tick, scan on.
                        out.push(b'\'');
                        i += 1;
                    }
                }
            }
            b'\n' => {
                out.push(b'\n');
                line += 1;
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    (
        String::from_utf8(out).expect("masking only replaces bytes with ASCII spaces"),
        allows,
    )
}

/// Parses `sf-lint: allow(<rule>)[: reason]` directives out of one
/// comment's text (the comment may span lines; the directive applies
/// at the line it appears on).
fn scan_allow(comment: &str, first_line: usize, allows: &mut Vec<Allow>) {
    for (off, text) in comment.lines().enumerate() {
        let Some(p) = text.find("sf-lint:") else {
            continue;
        };
        let rest = text[p + "sf-lint:".len()..].trim_start();
        let Some(inner) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = inner.find(')') else {
            continue;
        };
        let raw_rule = inner[..close].trim().to_string();
        let after = inner[close + 1..].trim_start();
        let has_reason = after
            .strip_prefix(':')
            .map(str::trim)
            .is_some_and(|r| !r.is_empty());
        allows.push(Allow {
            line: first_line + off,
            rule: Rule::from_name(&raw_rule),
            has_reason,
            raw_rule,
        });
    }
}

/// Marks the lines belonging to `#[cfg(test)]` items (attribute line
/// through the matching close brace) so rule matching skips them.
fn test_lines(masked: &str) -> Vec<bool> {
    let nlines = masked.lines().count().max(1);
    let mut skip = vec![false; nlines + 2];
    let b = masked.as_bytes();
    let mut line = 1usize;
    let mut depth = 0usize;
    // After seeing `#[cfg(test)]`: waiting for the item's `{`; a `;`
    // first means a braceless item (`#[cfg(test)] use …;`).
    let mut pending = false;
    let mut pending_from = 0usize;
    let mut skip_until_depth = usize::MAX;
    let mut i = 0usize;
    while i < b.len() {
        if skip_until_depth == usize::MAX && b[i] == b'#' && masked[i..].starts_with("#[cfg(test)]")
        {
            pending = true;
            pending_from = line;
            i += "#[cfg(test)]".len();
            continue;
        }
        match b[i] {
            b'{' => {
                if pending {
                    skip_until_depth = depth;
                    pending = false;
                    for s in &mut skip[pending_from..=line] {
                        *s = true;
                    }
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == skip_until_depth {
                    skip[line] = true;
                    skip_until_depth = usize::MAX;
                }
            }
            b';' if pending => {
                pending = false;
                for s in &mut skip[pending_from..=line] {
                    *s = true;
                }
            }
            b'\n' => {
                if skip_until_depth != usize::MAX || pending {
                    skip[line] = true;
                }
                line += 1;
            }
            _ => {}
        }
        if skip_until_depth != usize::MAX {
            skip[line] = true;
        }
        i += 1;
    }
    skip
}

/// True if `needle` occurs in `hay` as a whole word (no identifier
/// character on either side).
fn has_token(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        let start = from + p;
        let end = start + needle.len();
        let pre = hay[..start].chars().next_back();
        let post = hay[end..].chars().next();
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        if !pre.is_some_and(is_ident) && !post.is_some_and(is_ident) {
            return true;
        }
        from = end;
    }
    false
}

/// Scans one file's source text. `path` is used only for reporting.
pub fn scan_source(path: &Path, src: &str) -> Vec<Finding> {
    let (masked, allows) = mask_source(src);
    let skip = test_lines(&masked);
    let mut findings = Vec::new();

    // Malformed directives are findings themselves: an unknown rule
    // name or a missing reason silences nothing.
    for a in &allows {
        if a.rule.is_none() {
            findings.push(Finding {
                path: path.to_path_buf(),
                line: a.line,
                rule: None,
                message: format!(
                    "unknown rule {:?} in allow directive (known: hash-container, wall-clock, unwrap)",
                    a.raw_rule
                ),
            });
        } else if !a.has_reason {
            findings.push(Finding {
                path: path.to_path_buf(),
                line: a.line,
                rule: None,
                message: format!(
                    "allow({}) directive without a reason; write `sf-lint: allow({}): <why>`",
                    a.raw_rule, a.raw_rule
                ),
            });
        }
    }

    let allowed = |rule: Rule, line: usize| {
        allows
            .iter()
            .any(|a| a.rule == Some(rule) && a.has_reason && (a.line == line || a.line + 1 == line))
    };

    for (idx, text) in masked.lines().enumerate() {
        let line = idx + 1;
        if *skip.get(line).unwrap_or(&false) {
            continue;
        }
        let hits = [
            (
                Rule::HashContainer,
                has_token(text, "HashMap") || has_token(text, "HashSet"),
            ),
            (
                Rule::WallClock,
                text.contains("Instant::now") || has_token(text, "SystemTime"),
            ),
            (Rule::Unwrap, text.contains(".unwrap()")),
        ];
        for (rule, hit) in hits {
            if hit && !allowed(rule, line) {
                findings.push(Finding {
                    path: path.to_path_buf(),
                    line,
                    rule: Some(rule),
                    message: rule.explain().to_string(),
                });
            }
        }
    }
    findings
        .sort_by(|a, b| (a.line, format!("{:?}", a.rule)).cmp(&(b.line, format!("{:?}", b.rule))));
    findings
}

/// Collects the `.rs` files under `dir` recursively, sorted by path so
/// the report order (and any downstream diffing) is deterministic.
pub fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scans every determinism-bound crate under `repo_root` and returns
/// all findings plus the number of files scanned.
pub fn scan_repo(repo_root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut findings = Vec::new();
    let mut nfiles = 0usize;
    for krate in DETERMINISM_CRATES {
        let src = repo_root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        for file in rust_files(&src)? {
            let text = fs::read_to_string(&file)?;
            findings.extend(scan_source(&file, &text));
            nfiles += 1;
        }
    }
    Ok((findings, nfiles))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Finding> {
        scan_source(Path::new("test.rs"), src)
    }

    #[test]
    fn flags_hash_containers_outside_tests() {
        let f = scan("use std::collections::HashMap;\nfn f(m: &HashSet<u32>) {}\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Some(Rule::HashContainer)));
        assert_eq!((f[0].line, f[1].line), (1, 2));
    }

    #[test]
    fn flags_wall_clock_and_unwrap() {
        let f = scan("fn f() { let t = Instant::now(); x.unwrap(); }\n");
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&Some(Rule::WallClock)));
        assert!(rules.contains(&Some(Rule::Unwrap)));
    }

    #[test]
    fn expect_is_not_unwrap() {
        assert!(scan("fn f() { x.expect(\"invariant\"); }\n").is_empty());
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = "// mentions HashMap and Instant::now freely\n\
                   /// doc: .unwrap() is banned\n\
                   fn f() { let s = \"HashMap in a string\"; }\n\
                   fn g() { let c = 'H'; let r = r#\"SystemTime\"#; }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_derail_the_masker() {
        // A lifetime tick must not swallow the rest of the line as a
        // "char literal" — the unwrap after it must still be seen.
        let f = scan("fn f<'a>(x: &'a Foo) { x.get().unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Some(Rule::Unwrap));
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       #[test]\n\
                       fn t() { x.unwrap(); let _ = Instant::now(); }\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }\n";
        assert_eq!(scan(src).len(), 1);
    }

    #[test]
    fn code_after_a_test_mod_is_scanned_again() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n\
                   fn lib() { y.unwrap(); }\n";
        let f = scan(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_with_reason_silences_same_and_next_line() {
        let src = "// sf-lint: allow(wall-clock): progress meter only\n\
                   let t0 = Instant::now();\n";
        assert!(scan(src).is_empty());
        let same = "let t0 = Instant::now(); // sf-lint: allow(wall-clock): meter\n";
        assert!(scan(same).is_empty());
    }

    #[test]
    fn allow_without_reason_is_its_own_finding() {
        let src = "// sf-lint: allow(wall-clock)\nlet t0 = Instant::now();\n";
        let f = scan(src);
        // The bare directive is flagged AND it silences nothing.
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.rule.is_none()));
        assert!(f.iter().any(|x| x.rule == Some(Rule::WallClock)));
    }

    #[test]
    fn allow_unknown_rule_is_flagged() {
        let f = scan("// sf-lint: allow(everything): why not\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].rule.is_none());
        assert!(f[0].message.contains("unknown rule"));
    }

    #[test]
    fn allow_does_not_leak_to_other_rules_or_lines() {
        let src = "// sf-lint: allow(wall-clock): meter\n\
                   let t0 = Instant::now();\n\
                   let t1 = Instant::now();\n";
        let f = scan(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn token_boundaries_are_respected() {
        assert!(scan("struct MyHashMapLike;\nfn f(x: NotAHashSet) {}\n").is_empty());
        assert_eq!(scan("type M = HashMap<u32, u32>;\n").len(), 1);
    }

    #[test]
    fn btree_containers_are_fine() {
        assert!(scan("use std::collections::{BTreeMap, BTreeSet};\n").is_empty());
    }
}

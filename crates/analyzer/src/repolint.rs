//! `repolint` — dependency-free scanner enforcing the repo conventions of
//! DESIGN.md §6 over Rust sources.
//!
//! Rules (stable codes, append-only):
//!
//! * **R001** — `unsafe` is forbidden everywhere.
//! * **R002** — no `.unwrap()`, `.expect("…")`, `panic!`, `unreachable!`,
//!   `todo!`, `unimplemented!` on non-test paths. `#[cfg(test)]` modules,
//!   `tests/` trees, examples, the experiment harness crate, and the
//!   test infrastructure crate (`cda-testkit`, whose property harness panics
//!   by design) are exempt. Invariant-guarded sites are escaped explicitly
//!   with `// lint: allow(R002)` on the same or the preceding line.
//! * **R003** — every module carries `//!` docs before its first item.
//! * **R004** — every crate root (`lib.rs`) declares
//!   `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.
//! * **R006** — no `dbg!`, `print!`/`println!`, or `eprint!`/`eprintln!`
//!   on product paths: library code reports through return values and the
//!   transcript, never by writing to the process's stdio. Demo/bench
//!   binaries (`src/bin/`), examples, tests, and the bench/testkit crates
//!   are exempt — printing is their job. A deliberate exception needs
//!   `// lint: allow(R006)` and a justification.
//! * **R007** — every public analyzer [`Code`](crate::sqlcheck::Code)
//!   variant must be exercised by the NL rendering suite
//!   (`crates/analyzer/tests/render.rs`): both the variant name and its
//!   stable code string (`"A0xx"`) have to appear there, so a new finding
//!   code cannot ship without a rendering pin. This is a cross-file rule —
//!   it reads `sqlcheck.rs` for the `Code::… => "A0xx"` arms of `as_str`
//!   (the single source of truth the render path goes through) and checks
//!   the test file covers each one. [`lint_tree`] runs it automatically;
//!   [`lint_code_coverage`] is the pure core.
//! * **R009** — no direct `std::fs` use on product paths outside the
//!   storage crate. Durable state goes through `cda_storage::StorageBackend`
//!   (pages, checksums, crash-safe commit); ad-hoc file I/O bypasses all
//!   three. The storage crate (`crates/storage/`) owns the file system by
//!   design, and this linter module walks the source tree by design — both
//!   are exempt by path; tests and examples write scratch files freely.
//!   A deliberate exception needs `// lint: allow(R009)` and a
//!   justification.
//! * **R010** — no direct `.replace_table(` calls on product paths outside
//!   the mutation gate. Every catalog/dataset mutation must flow through
//!   the DML effects gate (`cda_core::mutation`): analyze → effect
//!   derivation → write-guarded execution → precise cache invalidation.
//!   A bare `Catalog::replace_table` call skips all four. The gate modules
//!   (`crates/core/src/mutation.rs`, `crates/core/src/catalog.rs`) commit
//!   replacements by design and are exempt by path; tests and examples
//!   mutate scratch catalogs freely. A deliberate exception needs
//!   `// lint: allow(R010)` and a justification. The pattern is
//!   dot-prefixed, so the method's own definition never matches.
//!
//! Retired codes, never reused: R005, R008 (they fenced deprecated shims
//! that no longer exist).
//!
//! The scanner strips comments and string/char-literal *contents* (keeping
//! delimiters and line structure) before matching, so a doc comment that
//! mentions `panic!` or a parser whose own method is named `expect` cannot
//! trigger a false positive. The `repolint` binary walks `crates/` and exits
//! non-zero on any violation; `ci.sh` runs it.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One convention violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule code (`R001`…).
    pub code: &'static str,
    /// File the violation is in (as given to the linter).
    pub file: String,
    /// 1-based line number (0 for file-level rules).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.code, self.message)
    }
}

/// What kind of source a file is; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library/binary source: all rules.
    Product,
    /// Crate root (`lib.rs`): all rules + R004.
    CrateRoot,
    /// Tests, examples, the bench and testkit crates: R002 exempt.
    TestOrBench,
}

/// Classify a repo-relative path.
pub fn classify(path: &str) -> FileKind {
    let p = path.replace('\\', "/");
    if p.contains("/tests/")
        || p.contains("/examples/")
        || p.contains("crates/bench/")
        || p.contains("crates/testkit/")
    {
        FileKind::TestOrBench
    } else if p.ends_with("src/lib.rs") {
        FileKind::CrateRoot
    } else {
        FileKind::Product
    }
}

/// Replace comment bodies and string/char-literal contents with spaces,
/// preserving delimiters, length, and line structure. Handles line and block
/// comments (nested), plain/raw/byte strings, and char literals; lifetimes
/// (`'a`) are left alone.
pub fn scrub(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, b: u8| {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    };
    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();
        if b == b'/' && next == Some(b'/') {
            // Keep the marker (plus a possible `!`/`/`) so doc-comment and
            // `// lint:` detection still work on the scrubbed text's shape,
            // but blank the comment body.
            out.push(b'/');
            out.push(b'/');
            i += 2;
            while i < bytes.len() && bytes[i] != b'\n' {
                blank(&mut out, bytes[i]);
                i += 1;
            }
        } else if b == b'/' && next == Some(b'*') {
            out.push(b' ');
            out.push(b' ');
            i += 2;
            let mut depth = 1usize;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
        } else if b == b'"' || (b == b'b' && next == Some(b'"')) {
            if b == b'b' {
                out.push(b'b');
                i += 1;
            }
            out.push(b'"');
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == b'"' {
                    out.push(b'"');
                    i += 1;
                    break;
                } else {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
        } else if b == b'r' && (next == Some(b'"') || next == Some(b'#')) {
            // Raw string r"…" / r#"…"#…
            out.push(b'r');
            i += 1;
            let mut hashes = 0usize;
            while bytes.get(i) == Some(&b'#') {
                out.push(b'#');
                hashes += 1;
                i += 1;
            }
            if bytes.get(i) == Some(&b'"') {
                out.push(b'"');
                i += 1;
                'raw: while i < bytes.len() {
                    if bytes[i] == b'"' {
                        let mut ok = true;
                        for h in 0..hashes {
                            if bytes.get(i + 1 + h) != Some(&b'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            out.push(b'"');
                            out.extend(std::iter::repeat_n(b'#', hashes));
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
        } else if b == b'\'' {
            // Char literal vs lifetime: a char literal closes with a `'`
            // within a few bytes ('x', '\n', '\u{1F600}').
            let mut j = i + 1;
            if bytes.get(j) == Some(&b'\\') {
                j += 2;
                while j < bytes.len() && bytes[j] != b'\'' && j - i < 12 {
                    j += 1;
                }
            } else if j < bytes.len() {
                // Skip one UTF-8 scalar.
                j += 1;
                while j < bytes.len() && bytes[j] & 0xC0 == 0x80 {
                    j += 1;
                }
            }
            if bytes.get(j) == Some(&b'\'') {
                out.push(b'\'');
                for &inner in &bytes[i + 1..j] {
                    blank(&mut out, inner);
                }
                out.push(b'\'');
                i = j + 1;
            } else {
                out.push(b'\''); // lifetime
                i += 1;
            }
        } else {
            out.push(b);
            i += 1;
        }
    }
    // Source was valid UTF-8 and we only replaced whole scalars with spaces.
    String::from_utf8_lossy(&out).into_owned()
}

const R002_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(\"",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Macros R006 bans on product paths. Matching is boundary-aware, so
/// `println` never fires the `print` pattern and `eprintln` never fires
/// `println`.
const R006_MACROS: &[&str] = &["dbg", "print", "println", "eprint", "eprintln"];

/// The crate tree that owns file I/O; R009 exempts it by path.
const R009_STORAGE_TREE: &str = "crates/storage/";

/// This linter reads sources from disk by design; R009 exempts it by path.
const R009_LINTER_MODULE: &str = "crates/analyzer/src/repolint.rs";

/// The call pattern R010 bans: dot-prefixed so the method's definition in
/// `crates/sql/src/catalog.rs` never matches, only call sites do.
const R010_PATTERN: &str = ".replace_table(";

/// The product paths allowed to commit table replacements: the effects-gated
/// mutation pipeline and the world-catalog layer it commits through.
const R010_GATE_MODULES: &[&str] = &["crates/core/src/mutation.rs", "crates/core/src/catalog.rs"];

fn has_allow(lines: &[&str], idx: usize, code: &str) -> bool {
    let needle = format!("lint: allow({code})");
    let hit = |l: &str| l.contains(&needle);
    hit(lines[idx]) || (idx > 0 && hit(lines[idx - 1]))
}

fn ident_boundary(b: Option<u8>) -> bool {
    !matches!(b, Some(c) if c == b'_' || c.is_ascii_alphanumeric())
}

/// True when `line` contains `word` as a standalone identifier.
fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before = at.checked_sub(1).map(|i| bytes[i]);
        let after = bytes.get(at + word.len()).copied();
        if ident_boundary(before) && ident_boundary(after) {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// True when `line` contains the `::`-qualified path `path` with identifier
/// boundaries at both ends (so `mystd::fs` or `std::fsync` never match
/// `std::fs`).
fn contains_path(line: &str, path: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(path) {
        let at = start + pos;
        let before = at.checked_sub(1).map(|i| bytes[i]);
        let after = bytes.get(at + path.len()).copied();
        if ident_boundary(before) && ident_boundary(after) {
            return true;
        }
        start = at + path.len();
    }
    false
}

/// True when `line` invokes the macro `name` (`name!` followed by an
/// opening delimiter), with identifier boundaries around `name`.
fn contains_macro_call(line: &str, name: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(name) {
        let at = start + pos;
        let before = at.checked_sub(1).map(|i| bytes[i]);
        let bang = bytes.get(at + name.len()).copied();
        let delim = bytes.get(at + name.len() + 1).copied();
        if ident_boundary(before)
            && bang == Some(b'!')
            && matches!(delim, Some(b'(') | Some(b'[') | Some(b'{'))
        {
            return true;
        }
        start = at + name.len();
    }
    false
}

/// Lint one file's source text.
pub fn lint_source(file: &str, source: &str, kind: FileKind) -> Vec<Violation> {
    let mut out = Vec::new();
    let scrubbed = scrub(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let scrub_lines: Vec<&str> = scrubbed.lines().collect();

    // R004: crate-root lint headers.
    if kind == FileKind::CrateRoot {
        for header in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
            if !source.contains(header) {
                out.push(Violation {
                    code: "R004",
                    file: file.into(),
                    line: 0,
                    message: format!("crate root is missing the `{header}` header"),
                });
            }
        }
    }

    // R003: `//!` module docs must appear before the first item.
    let mut has_docs = false;
    for l in &raw_lines {
        let t = l.trim_start();
        if t.starts_with("//!") {
            has_docs = true;
            break;
        }
        if t.is_empty() || t.starts_with("//") || t.starts_with("#![") {
            continue;
        }
        break; // first real item reached without docs
    }
    if !has_docs {
        out.push(Violation {
            code: "R003",
            file: file.into(),
            line: 1,
            message: "module has no `//!` documentation before its first item".into(),
        });
    }

    // R001 / R002 / R006 line scan with #[cfg(test)]-module skipping.
    // Entry points under `src/bin/` print by design (experiments, repolint, demos).
    let is_bin_entry = file.replace('\\', "/").contains("/src/bin/");
    let mut depth: i64 = 0;
    let mut test_mod_depth: Option<i64> = None;
    let mut pending_cfg_test = false;
    for (idx, sl) in scrub_lines.iter().enumerate() {
        let in_test = test_mod_depth.is_some();
        if !in_test {
            if sl.contains("#[cfg(test)]") {
                pending_cfg_test = true;
            } else if pending_cfg_test && contains_word(sl, "mod") {
                test_mod_depth = Some(depth);
                pending_cfg_test = false;
            }
        }

        if !in_test && test_mod_depth.is_none() {
            if contains_word(sl, "unsafe") && !has_allow(&raw_lines, idx, "R001") {
                out.push(Violation {
                    code: "R001",
                    file: file.into(),
                    line: idx + 1,
                    message: "`unsafe` is forbidden (DESIGN.md §6)".into(),
                });
            }
            if kind != FileKind::TestOrBench && !is_bin_entry {
                for mac in R006_MACROS {
                    if contains_macro_call(sl, mac) && !has_allow(&raw_lines, idx, "R006") {
                        out.push(Violation {
                            code: "R006",
                            file: file.into(),
                            line: idx + 1,
                            message: format!(
                                "`{mac}!` on a product path — report through return values \
                                 or the transcript instead, or escape with \
                                 `// lint: allow(R006)` and a justification"
                            ),
                        });
                        break;
                    }
                }
            }
            {
                let p = file.replace('\\', "/");
                if kind != FileKind::TestOrBench
                    && !p.contains(R009_STORAGE_TREE)
                    && !p.ends_with(R009_LINTER_MODULE)
                    && contains_path(sl, "std::fs")
                    && !has_allow(&raw_lines, idx, "R009")
                {
                    out.push(Violation {
                        code: "R009",
                        file: file.into(),
                        line: idx + 1,
                        message: format!(
                            "`std::fs` on a product path — durable state goes through \
                             `cda_storage::StorageBackend`; only the storage crate \
                             ({R009_STORAGE_TREE}) performs file I/O, or escape with \
                             `// lint: allow(R009)` and a justification"
                        ),
                    });
                }
            }
            {
                let p = file.replace('\\', "/");
                if kind != FileKind::TestOrBench
                    && !R010_GATE_MODULES.iter().any(|m| p.ends_with(m))
                    && sl.contains(R010_PATTERN)
                    && !has_allow(&raw_lines, idx, "R010")
                {
                    out.push(Violation {
                        code: "R010",
                        file: file.into(),
                        line: idx + 1,
                        message: format!(
                            "`{R010_PATTERN}` on a product path — catalog mutation must flow \
                             through the effects gate (`cda_core::mutation`: analyze, derive \
                             effects, write-guarded execute, precise invalidation); only the \
                             gate modules commit replacements, or escape with \
                             `// lint: allow(R010)` and a justification"
                        ),
                    });
                }
            }
            if kind != FileKind::TestOrBench {
                for pat in R002_PATTERNS {
                    if sl.contains(pat) && !has_allow(&raw_lines, idx, "R002") {
                        out.push(Violation {
                            code: "R002",
                            file: file.into(),
                            line: idx + 1,
                            message: format!(
                                "`{}` on a non-test path — return the crate error enum \
                                 instead, or escape with `// lint: allow(R002)` and a \
                                 justification",
                                pat.trim_end_matches('(').trim_end_matches('\"')
                            ),
                        });
                        break;
                    }
                }
            }
        }

        let opens = sl.matches('{').count() as i64;
        let closes = sl.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(d) = test_mod_depth {
            if depth <= d && (opens != 0 || closes != 0) {
                test_mod_depth = None;
            }
        }
    }
    out
}

/// Extract the `(variant, "A0xx")` pairs from `Code::as_str`'s match arms.
///
/// Works on the raw source (the code strings live inside string literals,
/// which [`scrub`] would blank). A line contributes a pair when it contains
/// `Code::<Ident>`, a `=>`, and a quoted `A`-prefixed three-digit code.
fn code_pairs(sqlcheck_src: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in sqlcheck_src.lines() {
        let Some(pos) = line.find("Code::") else { continue };
        let rest = &line[pos + "Code::".len()..];
        let ident: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if ident.is_empty() {
            continue;
        }
        let Some(arrow) = rest.find("=>") else { continue };
        let tail = &rest[arrow + 2..];
        let Some(q1) = tail.find('"') else { continue };
        let Some(q2) = tail[q1 + 1..].find('"') else { continue };
        let code = &tail[q1 + 1..q1 + 1 + q2];
        if code.len() == 4
            && code.starts_with('A')
            && code[1..].chars().all(|c| c.is_ascii_digit())
            && !out.iter().any(|(_, c)| c == code)
        {
            out.push((ident, code.to_owned()));
        }
    }
    out
}

/// R007 core: every `Code` variant found in `sqlcheck_src` must appear in
/// `render_src` (the NL rendering suite) both by variant name and by stable
/// code string. `render_file` is the path reported in violations.
pub fn lint_code_coverage(
    sqlcheck_src: &str,
    render_src: &str,
    render_file: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (variant, code) in code_pairs(sqlcheck_src) {
        let by_variant = render_src.contains(&format!("Code::{variant}"));
        let by_code = render_src.contains(&format!("\"{code}\""));
        if !(by_variant && by_code) {
            let missing = match (by_variant, by_code) {
                (false, false) => "neither the variant nor its code string appears",
                (false, true) => "the variant name does not appear",
                _ => "the stable code string does not appear",
            };
            out.push(Violation {
                code: "R007",
                file: render_file.into(),
                line: 0,
                message: format!(
                    "finding code {code} (`Code::{variant}`) has no NL rendering \
                     test: {missing} in the render suite"
                ),
            });
        }
    }
    out
}

/// Recursively lint every `.rs` file under `root/crates` (skipping
/// `target/` and hidden directories). Paths in violations are relative to
/// `root`, i.e. they start with `crates/`.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&f)?;
        out.extend(lint_source(&rel, &source, classify(&rel)));
    }
    // R007 is cross-file: the code inventory lives in sqlcheck.rs, the
    // required coverage in the analyzer's render suite.
    let sqlcheck = root.join("crates/analyzer/src/sqlcheck.rs");
    let render = root.join("crates/analyzer/tests/render.rs");
    if sqlcheck.is_file() {
        let sqlcheck_src = fs::read_to_string(&sqlcheck)?;
        let render_src =
            if render.is_file() { fs::read_to_string(&render)? } else { String::new() };
        out.extend(lint_code_coverage(
            &sqlcheck_src,
            &render_src,
            "crates/analyzer/tests/render.rs",
        ));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(file: &str, src: &str, kind: FileKind) -> Vec<&'static str> {
        lint_source(file, src, kind).into_iter().map(|v| v.code).collect()
    }

    const DOC: &str = "//! docs\n";

    #[test]
    fn clean_module_passes() {
        let src = "//! A documented module.\npub fn f() -> i32 { 1 }\n";
        assert!(codes("src/m.rs", src, FileKind::Product).is_empty());
    }

    #[test]
    fn r001_flags_unsafe_but_not_identifiers() {
        let src = format!("{DOC}fn f() {{ unsafe {{ }} }}\n");
        assert_eq!(codes("src/m.rs", &src, FileKind::Product), vec!["R001"]);
        let ok = format!("{DOC}#![forbid(unsafe_code)]\nfn unsafe_free() {{}}\n");
        assert!(codes("src/m.rs", &ok, FileKind::Product).is_empty());
    }

    #[test]
    fn r002_flags_unwrap_on_product_paths_only() {
        let src = format!("{DOC}fn f() {{ let _ = Some(1).unwrap(); }}\n");
        assert_eq!(codes("src/m.rs", &src, FileKind::Product), vec!["R002"]);
        assert!(codes("tests/t.rs", &src, FileKind::TestOrBench).is_empty());
    }

    #[test]
    fn r002_allows_cfg_test_modules() {
        let src = format!(
            "{DOC}pub fn f() {{}}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ \
             Some(1).unwrap(); panic!(\"x\"); }}\n}}\n"
        );
        assert!(codes("src/m.rs", &src, FileKind::Product).is_empty());
    }

    #[test]
    fn r002_flags_code_after_test_module_closes() {
        let src = format!(
            "{DOC}#[cfg(test)]\nmod tests {{\n    fn t() {{}}\n}}\nfn f() {{ panic!(\"x\"); }}\n"
        );
        assert_eq!(codes("src/m.rs", &src, FileKind::Product), vec!["R002"]);
    }

    #[test]
    fn r002_respects_allow_escapes() {
        let same = format!("{DOC}fn f() {{ x.unwrap(); }} // lint: allow(R002) invariant\n");
        assert!(codes("src/m.rs", &same, FileKind::Product).is_empty());
        let prev = format!("{DOC}// lint: allow(R002) static data\nfn f() {{ x.unwrap(); }}\n");
        assert!(codes("src/m.rs", &prev, FileKind::Product).is_empty());
        let wrong = format!("{DOC}// lint: allow(R001)\nfn f() {{ x.unwrap(); }}\n");
        assert_eq!(codes("src/m.rs", &wrong, FileKind::Product), vec!["R002"]);
    }

    #[test]
    fn r002_ignores_strings_comments_and_expect_methods() {
        let src = format!(
            "{DOC}// panic!(\"in comment\") and .unwrap() here\nfn f() {{ \
             let s = \"don't panic!(now) or .unwrap()\"; self.expect(b'\"'); }}\n"
        );
        assert!(codes("src/m.rs", &src, FileKind::Product).is_empty(), "{src}");
    }

    #[test]
    fn r002_expect_requires_string_literal() {
        let src = format!("{DOC}fn f() {{ v.expect(\"msg\"); }}\n");
        assert_eq!(codes("src/m.rs", &src, FileKind::Product), vec!["R002"]);
    }

    #[test]
    fn r006_flags_stdio_macros_on_product_paths() {
        for mac in ["dbg", "print", "println", "eprint", "eprintln"] {
            let src = format!("{DOC}fn f() {{ {mac}!(\"x\"); }}\n");
            assert_eq!(codes("src/m.rs", &src, FileKind::Product), vec!["R006"], "{mac}");
        }
    }

    #[test]
    fn r006_exempts_tests_benches_bins_and_cfg_test() {
        let src = format!("{DOC}fn f() {{ println!(\"x\"); }}\n");
        assert!(codes("tests/t.rs", &src, FileKind::TestOrBench).is_empty());
        // entry points under src/bin/ print by design
        assert!(codes("crates/analyzer/src/bin/repolint.rs", &src, FileKind::Product).is_empty());
        // #[cfg(test)] modules inside product files may print
        let in_tests = format!(
            "{DOC}pub fn f() {{}}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ \
             println!(\"x\"); dbg!(1); }}\n}}\n"
        );
        assert!(codes("src/m.rs", &in_tests, FileKind::Product).is_empty());
    }

    #[test]
    fn r006_respects_allow_escapes_and_boundaries() {
        let escaped = format!(
            "{DOC}// lint: allow(R006) progress line requested by the operator\n\
             fn f() {{ eprintln!(\"x\"); }}\n"
        );
        assert!(codes("src/m.rs", &escaped, FileKind::Product).is_empty());
        // mentions in comments and strings never trigger
        let benign = format!(
            "{DOC}// println!(\"in a comment\")\nfn f() {{ let _ = \"println!(nope)\"; }}\n"
        );
        assert!(codes("src/m.rs", &benign, FileKind::Product).is_empty(), "{benign}");
        // identifiers that merely contain a banned name don't fire
        let idents = format!(
            "{DOC}fn f() {{ pretty_print!(x); my_dbg(); writeln!(out, \"y\").ok(); }}\n"
        );
        assert!(codes("src/m.rs", &idents, FileKind::Product).is_empty(), "{idents}");
    }

    #[test]
    fn r009_flags_direct_fs_use_on_product_paths() {
        for stmt in ["use std::fs;", "use std::fs::File;", "let _ = std::fs::read(p);"] {
            let src = format!("{DOC}{stmt}\nfn f() {{}}\n");
            assert_eq!(
                codes("crates/core/src/durable.rs", &src, FileKind::Product),
                vec!["R009"],
                "{stmt}"
            );
        }
    }

    #[test]
    fn r009_exempts_the_storage_crate_linter_tests_and_escapes() {
        let src = format!("{DOC}fn f() {{ let _ = std::fs::read(p); }}\n");
        // the storage crate owns file I/O
        assert!(codes("crates/storage/src/disk.rs", &src, FileKind::Product).is_empty());
        // the linter itself walks the tree by design
        assert!(codes("crates/analyzer/src/repolint.rs", &src, FileKind::Product).is_empty());
        // tests and examples write scratch files freely
        assert!(codes("crates/integration/tests/storage.rs", &src, FileKind::TestOrBench).is_empty());
        // explicit escape with justification
        let escaped = format!(
            "{DOC}// lint: allow(R009) one-shot config import, not durable state\n\
             fn f() {{ let _ = std::fs::read(p); }}\n"
        );
        assert!(codes("crates/core/src/demo.rs", &escaped, FileKind::Product).is_empty());
        // mentions in comments and strings never fire
        let benign = format!(
            "{DOC}// std::fs is banned here\nfn f() {{ let _ = \"std::fs::read\"; }}\n"
        );
        assert!(codes("crates/core/src/demo.rs", &benign, FileKind::Product).is_empty(), "{benign}");
    }

    #[test]
    fn r010_flags_direct_replace_table_on_product_paths() {
        let src = format!("{DOC}fn f() {{ catalog.replace_table(\"emp\", t)?; }}\n");
        assert_eq!(codes("crates/core/src/dialogue.rs", &src, FileKind::Product), vec!["R010"]);
        assert_eq!(codes("crates/server/src/server.rs", &src, FileKind::Product), vec!["R010"]);
    }

    #[test]
    fn r010_exempts_gate_modules_tests_and_escapes() {
        let src = format!("{DOC}fn f() {{ catalog.replace_table(\"emp\", t)?; }}\n");
        // the mutation gate and the world-catalog layer commit by design
        assert!(codes("crates/core/src/mutation.rs", &src, FileKind::Product).is_empty());
        assert!(codes("crates/core/src/catalog.rs", &src, FileKind::Product).is_empty());
        // tests and examples mutate scratch catalogs freely
        assert!(codes("crates/sql/tests/dml.rs", &src, FileKind::TestOrBench).is_empty());
        // explicit escape with justification
        let escaped = format!(
            "{DOC}// lint: allow(R010) fixture reset path, not a user write\n\
             fn f() {{ catalog.replace_table(\"emp\", t)?; }}\n"
        );
        assert!(codes("crates/core/src/demo.rs", &escaped, FileKind::Product).is_empty());
        // #[cfg(test)] modules inside product files are exempt too
        let in_tests = format!(
            "{DOC}pub fn f() {{}}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ \
             c.replace_table(\"emp\", t); }}\n}}\n"
        );
        assert!(codes("crates/core/src/demo.rs", &in_tests, FileKind::Product).is_empty());
        // the definition itself (no leading dot) and mentions never fire
        let benign = format!(
            "{DOC}// call .replace_table( via the gate\npub fn replace_table(x: T) {{ \
             let _ = \".replace_table(\"; }}\n"
        );
        assert!(codes("crates/sql/src/catalog.rs", &benign, FileKind::Product).is_empty(), "{benign}");
    }

    #[test]
    fn r003_missing_module_docs() {
        assert_eq!(codes("src/m.rs", "pub fn f() {}\n", FileKind::Product), vec!["R003"]);
        // plain comments and inner attributes may precede the docs
        let ok = "// SPDX-ish header\n#![allow(clippy::all)]\n//! Docs.\nfn f() {}\n";
        assert!(codes("src/m.rs", ok, FileKind::Product).is_empty());
    }

    #[test]
    fn r004_crate_root_headers() {
        let src = "//! Crate.\npub fn f() {}\n";
        let v = codes("crates/x/src/lib.rs", src, FileKind::CrateRoot);
        assert_eq!(v, vec!["R004", "R004"]);
        let ok = "//! Crate.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
        assert!(codes("crates/x/src/lib.rs", ok, FileKind::CrateRoot).is_empty());
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/sql/src/exec.rs"), FileKind::Product);
        assert_eq!(classify("crates/sql/src/lib.rs"), FileKind::CrateRoot);
        assert_eq!(classify("crates/integration/tests/figure1.rs"), FileKind::TestOrBench);
        assert_eq!(classify("crates/bench/src/bin/exp_decoding.rs"), FileKind::TestOrBench);
        assert_eq!(classify("crates/testkit/src/prop.rs"), FileKind::TestOrBench);
        assert_eq!(classify("crates/core/examples/quickstart.rs"), FileKind::TestOrBench);
    }

    const SQLCHECK_STUB: &str = "//! stub\nimpl Code {\n    pub fn as_str(self) -> &'static str {\n        match self {\n            Code::SyntaxError => \"A001\",\n            Code::ProvablyEmpty => \"A015\",\n        }\n    }\n}\n";

    #[test]
    fn r007_passes_when_every_code_is_covered() {
        let render = "const CODES: &[(Code, &str)] = &[\n    (Code::SyntaxError, \"A001\"),\n    (Code::ProvablyEmpty, \"A015\"),\n];\n";
        assert!(lint_code_coverage(SQLCHECK_STUB, render, "tests/render.rs").is_empty());
    }

    #[test]
    fn r007_flags_a_code_missing_from_the_render_suite() {
        let render = "const CODES: &[(Code, &str)] = &[(Code::SyntaxError, \"A001\")];\n";
        let v = lint_code_coverage(SQLCHECK_STUB, render, "tests/render.rs");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, "R007");
        assert!(v[0].message.contains("A015"), "{}", v[0].message);
        assert!(v[0].message.contains("ProvablyEmpty"), "{}", v[0].message);
    }

    #[test]
    fn r007_requires_both_variant_and_code_string() {
        // Code string present but variant absent still fires…
        let only_code = "let _ = \"A001\"; let _ = (Code::ProvablyEmpty, \"A015\");\n";
        let v = lint_code_coverage(SQLCHECK_STUB, only_code, "tests/render.rs");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("variant name does not appear"), "{}", v[0].message);
        // …and so does variant present but code string absent.
        let only_variant = "let _ = Code::SyntaxError; let _ = (Code::ProvablyEmpty, \"A015\");\n";
        let v = lint_code_coverage(SQLCHECK_STUB, only_variant, "tests/render.rs");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("code string does not appear"), "{}", v[0].message);
    }

    #[test]
    fn r007_ignores_non_code_match_arms_and_missing_suite() {
        // Arms mapping to severities (no quoted A0xx) contribute nothing.
        let src = "//! stub\nmatch self {\n    Code::SyntaxError => Severity::Reject,\n}\n";
        assert!(lint_code_coverage(src, "", "tests/render.rs").is_empty());
        // With a real inventory, an empty/missing suite flags every code.
        let v = lint_code_coverage(SQLCHECK_STUB, "", "tests/render.rs");
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.code == "R007"));
    }

    #[test]
    fn r007_holds_on_this_repo() {
        // The live cross-check that `lint_tree` performs, run in-process so
        // a missing rendering pin fails the unit suite too, not just CI.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let sqlcheck_src = fs::read_to_string(root.join("crates/analyzer/src/sqlcheck.rs"))
            .expect("sqlcheck.rs readable");
        let render_src = fs::read_to_string(root.join("crates/analyzer/tests/render.rs"))
            .expect("render.rs readable");
        let v = lint_code_coverage(&sqlcheck_src, &render_src, "crates/analyzer/tests/render.rs");
        assert!(v.is_empty(), "{v:?}");
        // Sanity: the inventory actually sees the absint codes.
        let pairs = code_pairs(&sqlcheck_src);
        for code in ["A001", "A015", "A016", "A017", "A018"] {
            assert!(pairs.iter().any(|(_, c)| c == code), "missing {code}");
        }
    }

    #[test]
    fn scrub_preserves_line_structure() {
        let src = "let a = \"x\ny\"; /* c\nc */ let b = 'q';\n";
        let s = scrub(src);
        assert_eq!(s.lines().count(), src.lines().count());
        assert!(!s.contains('x') && !s.contains('q'));
    }

    #[test]
    fn violation_display() {
        let v = Violation {
            code: "R002",
            file: "src/m.rs".into(),
            line: 3,
            message: "nope".into(),
        };
        assert_eq!(v.to_string(), "src/m.rs:3: [R002] nope");
    }
}

//! Layer 2 — the determinism linter behind `uca lint`.
//!
//! A lexer-based scanner over `crates/*/src/**/*.rs` enforcing the
//! workspace's reproducibility rules:
//!
//! * **`default-hasher`** — no `std::collections::HashMap`/`HashSet` with
//!   the default (randomly seeded) hasher in simulation crates; use the
//!   FNV-based `unicache_core::DetHashMap`/`DetHashSet` so iteration
//!   order, and therefore every byte of experiment output, is stable.
//! * **`no-unwrap`** — no `.unwrap()`/`.expect(` in the hot-path crates
//!   (`core`, `assoc`, `indexing`, `cachesim`, `smt`, `hierarchy`,
//!   `trace`), the executor (`exec`) or the analytical model (`model`);
//!   fallible paths return `Result` or destructure explicitly.
//! * **`narrowing-cast`** — no raw `as` integer casts in
//!   `core/src/geometry.rs` and `core/src/index.rs` (the address-math
//!   kernels); use the `unicache_core::cast` checked helpers.
//! * **`wallclock`** — no `Instant`/`SystemTime` outside `crates/timing`;
//!   simulated results must not depend on the host clock.
//! * **`thread-outside-exec`** — no `thread::spawn`/`thread::scope`/
//!   `thread::Builder` outside `crates/exec`; ad-hoc threading bypasses
//!   the deterministic executor's canonical job ordering, so all
//!   parallelism must route through `unicache_exec::map` (which `xp
//!   --jobs N` governs).
//! * **`unsafe-outside-simd`** — no `unsafe` blocks and no
//!   `std::arch`/`core::arch`/`std::simd` paths outside the one audited
//!   unsafe home: the executor's process-tuning FFI shim
//!   (`exec/src/sys.rs`). Simulation code, the batched index loops
//!   included, is safe Rust that the compiler vectorizes on its own.
//!
//! A trailing `// uca:allow(rule)` comment suppresses a rule on that line
//! (used where wall-clock time is the *point*, e.g. `xp --timing`).
//! The lexer strips comments and string/char literals and blanks
//! `#[cfg(test)]` / `#[cfg(all(test, …))]` modules before matching, so
//! doc text and test-only code never trip a rule. [`self_test`] seeds one
//! violation per rule into in-memory fixtures and asserts each is
//! detected and each allow-escape suppresses it.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, e.g. `crates/core/src/lru.rs`.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name, e.g. `default-hasher`.
    pub rule: &'static str,
    /// What was matched and what to use instead.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The lint rule names, in report order.
pub const RULES: &[&str] = &[
    "default-hasher",
    "no-unwrap",
    "narrowing-cast",
    "wallclock",
    "thread-outside-exec",
    "unsafe-outside-simd",
];

/// Builds the machine-readable report for a lint run: one summary entry
/// per rule (passed = no findings) followed by one failed entry per
/// violation — the same shape `uca check` and `uca conc` emit, so CI
/// consumes all three uniformly.
pub fn report_from(violations: &[Violation]) -> crate::report::Report {
    let mut report = crate::report::Report::default();
    for rule in RULES {
        let n = violations.iter().filter(|v| v.rule == *rule).count();
        report.push(
            *rule,
            "workspace",
            "zero-violations",
            n == 0,
            format!("{n} violations"),
        );
    }
    for v in violations {
        report.push(
            v.rule,
            format!("{}:{}", v.file, v.line),
            "zero-violations",
            false,
            v.message.clone(),
        );
    }
    report
}

/// Crates where the default std hasher is banned (everything whose output
/// feeds the experiment pipeline; `bench`/`timing` measure the host,
/// `analysis` is this tool).
const DEFAULT_HASHER_CRATES: &[&str] = &[
    "assoc",
    "cachesim",
    "core",
    "experiments",
    "hierarchy",
    "indexing",
    "model",
    "obs",
    "smt",
    "stats",
    "trace",
    "workloads",
];

/// Hot-path crates, the executor and the analytical model: where
/// `.unwrap()`/`.expect(` are banned.
const NO_UNWRAP_CRATES: &[&str] = &[
    "assoc",
    "cachesim",
    "core",
    "exec",
    "hierarchy",
    "indexing",
    "model",
    "smt",
    "trace",
];

/// Address-math kernels where raw `as` integer casts are banned.
const NARROWING_CAST_FILES: &[&str] = &["crates/core/src/geometry.rs", "crates/core/src/index.rs"];

/// The only crate allowed to read the host clock.
const WALLCLOCK_CRATE: &str = "timing";

/// The only crate allowed to spawn or scope threads.
const THREAD_CRATE: &str = "exec";

/// Thread-creation forms banned outside [`THREAD_CRATE`]. `thread_local!`
/// is deliberately absent: per-thread *storage* (the obs shards) is fine,
/// per-crate *scheduling* is not.
const THREAD_NEEDLES: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];

/// The only file allowed to contain `unsafe` blocks or SIMD intrinsic
/// paths: the executor's process-tuning FFI shim, so all libc FFI is
/// auditable in one place.
const UNSAFE_FILES: &[&str] = &["crates/exec/src/sys.rs"];

/// Intrinsic module paths banned outside [`UNSAFE_FILES`].
const INTRINSIC_NEEDLES: &[&str] = &["std::arch", "core::arch", "std::simd"];

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Lints every `crates/*/src/**/*.rs` file under `root` (the workspace
/// root). Returns findings sorted by file then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut violations = Vec::new();
    for crate_dir in crate_dirs {
        let crate_name = match crate_dir.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let src = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            violations.extend(lint_source(&rel, &crate_name, &src));
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints one source file. `path` is the workspace-relative path used both
/// for reporting and for the file-scoped rules; `crate_name` selects the
/// crate-scoped rules.
pub fn lint_source(path: &str, crate_name: &str, src: &str) -> Vec<Violation> {
    let cleaned = clean_source(src);
    let text = blank_test_modules(&cleaned.text);

    let hasher_scoped = DEFAULT_HASHER_CRATES.contains(&crate_name);
    let unwrap_scoped = NO_UNWRAP_CRATES.contains(&crate_name);
    let cast_scoped = NARROWING_CAST_FILES.contains(&path);
    let wallclock_scoped = crate_name != WALLCLOCK_CRATE;
    let thread_scoped = crate_name != THREAD_CRATE;
    let unsafe_scoped = !UNSAFE_FILES.contains(&path);

    let mut violations = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        if cleaned.allows(line, rule) {
            return;
        }
        violations.push(Violation {
            file: path.to_string(),
            line,
            rule,
            message,
        });
    };

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if hasher_scoped {
            for ident in ["HashMap", "HashSet"] {
                if contains_ident(line, ident) {
                    push(
                        lineno,
                        "default-hasher",
                        format!("randomly seeded `{ident}`; use `unicache_core::Det{ident}`"),
                    );
                    break;
                }
            }
        }
        if unwrap_scoped && (line.contains(".unwrap(") || line.contains(".expect(")) {
            push(
                lineno,
                "no-unwrap",
                "`.unwrap()`/`.expect()` in a hot-path crate; return `Result` or destructure"
                    .to_string(),
            );
        }
        if cast_scoped && has_narrowing_cast(line) {
            push(
                lineno,
                "narrowing-cast",
                "raw `as` integer cast in address math; use `unicache_core::cast` helpers"
                    .to_string(),
            );
        }
        if wallclock_scoped {
            for ident in ["Instant", "SystemTime"] {
                if contains_ident(line, ident) {
                    push(
                        lineno,
                        "wallclock",
                        format!("`{ident}` outside crates/timing makes output host-dependent"),
                    );
                    break;
                }
            }
        }
        if thread_scoped {
            for needle in THREAD_NEEDLES {
                if line.contains(needle) {
                    push(
                        lineno,
                        "thread-outside-exec",
                        format!(
                            "`{needle}` outside crates/exec; route parallelism through \
                             `unicache_exec::map` so job order stays canonical"
                        ),
                    );
                    break;
                }
            }
        }
        if unsafe_scoped {
            if contains_ident(line, "unsafe") {
                push(
                    lineno,
                    "unsafe-outside-simd",
                    "`unsafe` outside the allowlisted FFI shim (`exec/src/sys.rs`); keep \
                     simulation code safe (plain slice loops vectorize without it)"
                        .to_string(),
                );
            } else {
                for needle in INTRINSIC_NEEDLES {
                    if line.contains(needle) {
                        push(
                            lineno,
                            "unsafe-outside-simd",
                            format!(
                                "`{needle}` outside the allowlisted FFI shim \
                                 (`exec/src/sys.rs`); write vector code as plain slice \
                                 loops the compiler vectorizes"
                            ),
                        );
                        break;
                    }
                }
            }
        }
    }
    violations
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True if `line` contains `ident` as a standalone identifier (not as a
/// substring of a longer one — `DetHashMap` does not contain the
/// identifier `HashMap`, `Instantiates` does not contain `Instant`).
pub(crate) fn contains_ident(line: &str, ident: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(ident) {
        let start = from + pos;
        let end = start + ident.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// True if `line` contains an `as <integer type>` cast.
fn has_narrowing_cast(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find("as") {
        let start = from + pos;
        let end = start + 2;
        from = start + 1;
        if start > 0 && is_ident_byte(bytes[start - 1]) {
            continue;
        }
        if end < bytes.len() && is_ident_byte(bytes[end]) {
            continue;
        }
        let rest = line[end..].trim_start();
        for ty in INT_TYPES {
            if let Some(after) = rest.strip_prefix(ty) {
                if after.as_bytes().first().is_none_or(|&b| !is_ident_byte(b)) {
                    return true;
                }
            }
        }
    }
    false
}

/// `src` with comments and string/char literals blanked to spaces
/// (newlines preserved, so line/column structure survives), plus the
/// `uca:allow(rule)` escapes captured from comments before they were
/// erased.
pub(crate) struct CleanSource {
    pub(crate) text: String,
    /// `(line, rule)` pairs granted by comments on that line.
    pub(crate) allow: Vec<(usize, String)>,
}

impl CleanSource {
    pub(crate) fn allows(&self, line: usize, rule: &str) -> bool {
        self.allow.iter().any(|(l, r)| *l == line && r == rule)
    }
}

/// The lexer's cleaning passes, exposed for the lexer property tests:
/// comments/literals blanked (with `uca:allow` escapes captured), then
/// test-only modules blanked.
#[doc(hidden)]
pub fn debug_clean(src: &str) -> (String, Vec<(usize, String)>) {
    let cleaned = clean_source(src);
    (blank_test_modules(&cleaned.text), cleaned.allow)
}

fn record_allows(comment: &str, line: usize, allow: &mut Vec<(usize, String)>) {
    let mut from = 0;
    while let Some(pos) = comment[from..].find("uca:allow(") {
        let start = from + pos + "uca:allow(".len();
        from = start;
        let Some(close) = comment[start..].find(')') else {
            return;
        };
        for rule in comment[start..start + close].split(',') {
            allow.push((line, rule.trim().to_string()));
        }
    }
}

pub(crate) fn clean_source(src: &str) -> CleanSource {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut allow = Vec::new();
    let mut i = 0;
    let mut line = 1;

    // Blanks out[i] unless it is a newline (which must survive so line
    // numbers stay aligned), returning the updated line counter.
    fn blank(out: &mut [u8], i: usize, line: &mut usize) {
        if out[i] == b'\n' {
            *line += 1;
        } else {
            out[i] = b' ';
        }
    }

    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
                record_allows(&src[start..i], line, &mut allow);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                out[i] = b' ';
                out[i + 1] = b' ';
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else {
                        blank(&mut out, i, &mut line);
                        i += 1;
                    }
                }
                // Allows in a block comment apply to the line it starts on.
                record_allows(&src[start..i], start_line, &mut allow);
            }
            b'"' => {
                out[i] = b' ';
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        out[i] = b' ';
                        if i + 1 < bytes.len() {
                            blank(&mut out, i + 1, &mut line);
                        }
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out[i] = b' ';
                        i += 1;
                        break;
                    } else {
                        blank(&mut out, i, &mut line);
                        i += 1;
                    }
                }
            }
            b'r' | b'b'
                if raw_string_hashes(bytes, i).is_some()
                    && (i == 0 || !is_ident_byte(bytes[i - 1])) =>
            {
                // r"...", r#"..."#, br"...", b"..." — blank through the
                // matching terminator.
                let (body_start, hashes) = match raw_string_hashes(bytes, i) {
                    Some(v) => v,
                    None => unreachable!("guard checked raw_string_hashes"),
                };
                for b in &mut out[i..body_start] {
                    *b = b' ';
                }
                i = body_start;
                while i < bytes.len() {
                    if bytes[i] == b'"' && hashes_follow(bytes, i + 1, hashes) {
                        for k in 0..=hashes {
                            out[i + k] = b' ';
                        }
                        i += 1 + hashes;
                        break;
                    }
                    if hashes == 0 && bytes[i] == b'\\' {
                        // Plain b"..." honours escapes; raw forms do not.
                        out[i] = b' ';
                        if i + 1 < bytes.len() {
                            blank(&mut out, i + 1, &mut line);
                        }
                        i += 2;
                        continue;
                    }
                    blank(&mut out, i, &mut line);
                    i += 1;
                }
            }
            b'\'' => {
                if bytes.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: blank through the closing quote.
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    i += 2;
                    if i < bytes.len() {
                        out[i] = b' ';
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i] != b'\'' {
                        blank(&mut out, i, &mut line);
                        i += 1;
                    }
                    if i < bytes.len() {
                        out[i] = b' ';
                        i += 1;
                    }
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    // Plain 'x' char literal.
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    out[i + 2] = b' ';
                    i += 3;
                } else {
                    // Lifetime — leave it; lifetime names are lowercase
                    // identifiers and never match a lint needle.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }

    let text = match String::from_utf8(out) {
        Ok(t) => t,
        // Unreachable in practice: blanking replaces whole literals, so
        // multi-byte sequences are never split. Fall back lossily.
        Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
    };
    CleanSource { text, allow }
}

/// If `bytes[i..]` starts a raw/byte string literal (`r"`, `r#…#"`, `br"`,
/// `b"`), returns `(index of first body byte, number of hashes)`.
fn raw_string_hashes(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        let mut hashes = 0;
        while bytes.get(j + hashes) == Some(&b'#') {
            hashes += 1;
        }
        if bytes.get(j + hashes) == Some(&b'"') {
            return Some((j + hashes + 1, hashes));
        }
        return None;
    }
    // Plain byte string b"..." (only when we entered via 'b').
    if j == i + 1 && bytes.get(j) == Some(&b'"') {
        return Some((j + 1, 0));
    }
    None
}

fn hashes_follow(bytes: &[u8], from: usize, hashes: usize) -> bool {
    (0..hashes).all(|k| bytes.get(from + k) == Some(&b'#'))
}

/// Attribute spellings that mark a test-only item (the second covers
/// feature-gated test modules like `#[cfg(all(test, feature = "x"))]`).
const TEST_ATTRS: &[&str] = &["#[cfg(test)]", "#[cfg(all(test,"];

/// The earliest occurrence of any [`TEST_ATTRS`] needle in `text[from..]`,
/// as `(absolute position, needle length)`.
fn next_test_attr(text: &str, from: usize) -> Option<(usize, usize)> {
    TEST_ATTRS
        .iter()
        .filter_map(|a| text[from..].find(a).map(|p| (from + p, a.len())))
        .min()
}

/// Blanks every test-only `#[cfg(...)]` attribute and the brace-matched
/// body following it, so test-only code is exempt from the lints. The
/// attribute itself is blanked too, which makes the pass idempotent —
/// re-cleaning already-cleaned text cannot rediscover the attribute and
/// blank a later, unrelated brace block.
pub(crate) fn blank_test_modules(text: &str) -> String {
    let mut out = text.as_bytes().to_vec();
    let mut from = 0;
    while let Some((pos, attr_len)) = next_test_attr(text, from) {
        let attr_end = pos + attr_len;
        // Find the body's opening brace (skipping `mod tests`, visibility,
        // further attributes…).
        let Some(open_rel) = text[attr_end..].find('{') else {
            break;
        };
        let open = attr_end + open_rel;
        for b in &mut out[pos..open] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        let mut depth = 0usize;
        let bytes = text.as_bytes();
        let mut j = open;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let close = j.min(bytes.len() - 1);
        for b in &mut out[open..=close] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        from = j.min(bytes.len());
    }
    match String::from_utf8(out) {
        Ok(t) => t,
        Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
    }
}

/// One seeded-violation fixture per rule, plus blanking sanity checks.
/// Returns `Err` with a description of every fixture whose outcome was
/// wrong (a rule that failed to fire, or an allow that failed to
/// suppress).
pub fn self_test() -> Result<(), String> {
    struct Fixture {
        rule: &'static str,
        path: &'static str,
        crate_name: &'static str,
        src: &'static str,
        /// 1-based line the seeded violation sits on.
        line: usize,
    }
    let fixtures = [
        Fixture {
            rule: "default-hasher",
            path: "crates/experiments/src/uca_fixture.rs",
            crate_name: "experiments",
            src: "fn f() -> usize {\n    let m = std::collections::HashMap::<u32, u32>::new();\n    m.len()\n}\n",
            line: 2,
        },
        Fixture {
            rule: "no-unwrap",
            path: "crates/core/src/uca_fixture.rs",
            crate_name: "core",
            src: "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
            line: 2,
        },
        Fixture {
            rule: "narrowing-cast",
            path: "crates/core/src/geometry.rs",
            crate_name: "core",
            src: "fn f(x: u64) -> usize {\n    x as usize\n}\n",
            line: 2,
        },
        // The batch entry point (index.rs) is also in the narrowing-cast
        // scope: an index_many-style body that narrows per element must
        // fire there, and the shipped cast-free out-buffer version relies
        // on the allow-escape working if one is ever needed.
        Fixture {
            rule: "narrowing-cast",
            path: "crates/core/src/index.rs",
            crate_name: "core",
            src: "fn index_many(blocks: &[u64], out: &mut [usize]) {\n    for (slot, &b) in out.iter_mut().zip(blocks) {\n        *slot = b as usize;\n    }\n}\n",
            line: 3,
        },
        Fixture {
            rule: "wallclock",
            path: "crates/stats/src/uca_fixture.rs",
            crate_name: "stats",
            src: "fn f() {\n    let _t = std::time::Instant::now();\n}\n",
            line: 2,
        },
        Fixture {
            rule: "thread-outside-exec",
            path: "crates/experiments/src/uca_fixture.rs",
            crate_name: "experiments",
            src: "fn f() {\n    std::thread::spawn(|| {}).join().ok();\n}\n",
            line: 2,
        },
        Fixture {
            rule: "unsafe-outside-simd",
            path: "crates/workloads/src/uca_fixture.rs",
            crate_name: "workloads",
            src: "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
            line: 2,
        },
        // The intrinsic-path needle fires even without an unsafe block
        // (e.g. a stray `use std::arch::…` import).
        Fixture {
            rule: "unsafe-outside-simd",
            path: "crates/cachesim/src/uca_fixture.rs",
            crate_name: "cachesim",
            src: "use std::arch::x86_64::_mm_prefetch;\n",
            line: 1,
        },
    ];

    let mut errors = Vec::new();
    for f in &fixtures {
        let found = lint_source(f.path, f.crate_name, f.src);
        if found.len() != 1 || found[0].rule != f.rule || found[0].line != f.line {
            errors.push(format!(
                "rule '{}': expected exactly one violation at {}:{}, got {:?}",
                f.rule, f.path, f.line, found
            ));
        }
        // The same source with an allow-escape on the seeded line must be
        // clean.
        let allowed: String = f
            .src
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i + 1 == f.line {
                    format!("{l} // uca:allow({})\n", f.rule)
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let found = lint_source(f.path, f.crate_name, &allowed);
        if !found.is_empty() {
            errors.push(format!(
                "rule '{}': uca:allow escape did not suppress: {found:?}",
                f.rule
            ));
        }
        // Inside a string literal or a #[cfg(test)] module the pattern
        // must be invisible.
        let in_string = format!("fn f() -> &'static str {{\n    {:?}\n}}\n", f.src);
        if !lint_source(f.path, f.crate_name, &in_string).is_empty() {
            errors.push(format!("rule '{}': fired inside a string literal", f.rule));
        }
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{}\n}}\n", f.src);
        if !lint_source(f.path, f.crate_name, &in_test).is_empty() {
            errors.push(format!("rule '{}': fired inside #[cfg(test)]", f.rule));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        if let Err(e) = self_test() {
            panic!("lint self-test failed:\n{e}");
        }
    }

    #[test]
    fn ident_matching_is_word_bounded() {
        assert!(contains_ident("let m: HashMap<u32, u32>;", "HashMap"));
        assert!(!contains_ident("let m: DetHashMap<u32, u32>;", "HashMap"));
        assert!(!contains_ident("/// Instantiates the model.", "Instant"));
        assert!(contains_ident("Instant::now()", "Instant"));
    }

    #[test]
    fn unwrap_matching_is_literal() {
        let v = lint_source(
            "crates/core/src/x.rs",
            "core",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n",
        );
        assert!(v.is_empty(), "unwrap_or_else must not be flagged: {v:?}");
    }

    #[test]
    fn narrowing_cast_requires_integer_target() {
        assert!(has_narrowing_cast("x as usize"));
        assert!(has_narrowing_cast("(a + b) as u64"));
        assert!(!has_narrowing_cast("x as f64"));
        assert!(!has_narrowing_cast("use foo as bar;"));
        assert!(!has_narrowing_cast("alias"));
    }

    #[test]
    fn comments_and_strings_are_invisible() {
        let src = "// HashMap in a comment\nlet s = \"HashMap .unwrap( Instant\";\n";
        assert!(lint_source("crates/core/src/x.rs", "core", src).is_empty());
        let raw = "let s = r#\"Instant::now() .unwrap()\"#;\n";
        assert!(lint_source("crates/core/src/x.rs", "core", raw).is_empty());
    }

    #[test]
    fn allow_escape_is_rule_specific() {
        let src = "let t = Instant::now(); // uca:allow(wallclock)\n";
        assert!(lint_source("crates/stats/src/x.rs", "stats", src).is_empty());
        // An allow for a different rule does not suppress.
        let src = "let t = Instant::now(); // uca:allow(no-unwrap)\n";
        assert_eq!(lint_source("crates/stats/src/x.rs", "stats", src).len(), 1);
    }

    #[test]
    fn scopes_are_honoured() {
        // bench may use wall-clock-free HashMap; timing may use Instant.
        let src = "let m = std::collections::HashMap::<u32, u32>::new();\n";
        assert!(lint_source("crates/bench/src/x.rs", "bench", src).is_empty());
        let src = "let t = std::time::Instant::now();\n";
        assert!(lint_source("crates/timing/src/x.rs", "timing", src).is_empty());
        // Casts are only policed in the two kernel files.
        let src = "fn f(x: u64) -> usize { x as usize }\n";
        assert!(lint_source("crates/core/src/lru.rs", "core", src).is_empty());
        assert_eq!(
            lint_source("crates/core/src/geometry.rs", "core", src).len(),
            1
        );
        // The executor's FFI shim is an audited unsafe home; the rest of
        // the executor is not.
        let src = "fn f() {\n    unsafe { mallopt(0, 0) };\n}\n";
        assert!(lint_source("crates/exec/src/sys.rs", "exec", src).is_empty());
        assert_eq!(lint_source("crates/exec/src/lib.rs", "exec", src).len(), 1);
    }

    #[test]
    fn thread_rule_scopes_and_storage_exemption() {
        // crates/exec is the one sanctioned home for thread creation.
        let src = "fn f() { std::thread::scope(|s| { let _ = s; }); }\n";
        assert!(lint_source("crates/exec/src/lib.rs", "exec", src).is_empty());
        assert_eq!(
            lint_source("crates/experiments/src/x.rs", "experiments", src).len(),
            1
        );
        // Per-thread storage (obs shards) is allowed everywhere.
        let src = "std::thread_local! { static T: u64 = 0; }\n";
        assert!(lint_source("crates/obs/src/x.rs", "obs", src).is_empty());
    }

    #[test]
    fn feature_gated_test_modules_are_blanked() {
        let src = "#[cfg(all(test, feature = \"enabled\"))]\nmod tests {\n    fn f() { std::thread::spawn(|| {}); }\n}\n";
        assert!(lint_source("crates/obs/src/x.rs", "obs", src).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_survive() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '\\n'; let d = 'x'; c.max(d) }\n";
        assert!(lint_source("crates/core/src/x.rs", "core", src).is_empty());
        // Code *after* a char literal is still scanned.
        let src = "fn f() { let _c = 'x'; let _t = Instant::now(); }\n";
        assert_eq!(lint_source("crates/core/src/x.rs", "core", src).len(), 1);
    }
}

//! `eq_lint` — the workspace static-analysis pass.
//!
//! PRs 2–5 established serving-tier invariants that ordinary tests only
//! catch when a runtime path happens to exercise them: the steady-state
//! read path allocates nothing, ingest atomicity hangs off one documented
//! lock order, and the wire format is pinned by golden fixtures.  This
//! crate makes those invariants *lexically* checkable.  A hand-rolled,
//! panic-free lexer (see [`lexer`]) turns every `.rs` file under `crates/`
//! and `src/` into a token stream, and a rule engine driven by the
//! committed `lint.toml` policy (see [`policy`]) walks it:
//!
//! * **`panic`** — no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` in
//!   the serving crates' non-test code.
//! * **`lock`** — no lock acquisition inside the scope of another guard
//!   unless the (outer, inner) pair is in the policy's lock-order table,
//!   and no blocking I/O (`sync_all`, `write_all`, …) under a guard.
//! * **`hot-path`** — functions in the hot-path registry must not call
//!   allocating methods/macros/constructors outside `#[cold]` blocks.
//! * **`wire`** — each magic/version constant is defined exactly once, its
//!   literal never reappears elsewhere, and versions with golden fixtures
//!   carry a blessed fixture CRC.
//! * **`golden`** — every fixture in the golden directory is referenced by
//!   the golden test, and every directly-checked name has a fixture.
//!
//! A violation can be suppressed only by an inline annotation on (or
//! immediately above) the offending line:
//!
//! ```text
//! // lint:allow(panic) infallible: slice length checked two lines up
//! ```
//!
//! Every allow is recorded and reported in the run summary, a reason is
//! mandatory, and an allow that suppresses nothing is itself a warning.
//! The pass runs as `cargo run -p eq_lint` and as an in-crate `#[test]`
//! gate in each serving crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod policy;
pub mod rules;

use lexer::{lex, Token, TokenKind};
use policy::{parse_policy, Policy, PolicyError};

/// The rule names an allow annotation may suppress.
pub const RULES: &[&str] = &["panic", "lock", "hot-path", "wire", "golden"];

/// One reported problem: `file:line:rule: message` plus the offending line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative file path (`/`-separated).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The rule that fired (`panic`, `lock`, …).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, trimmed of trailing whitespace.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}", self.file, self.line, self.rule, self.message)?;
        if !self.snippet.is_empty() {
            write!(f, "\n    {}", self.snippet.trim_start())?;
        }
        Ok(())
    }
}

/// One `// lint:allow(…)` annotation found in a file.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// Workspace-relative file path.
    pub file: String,
    /// Line of the annotation comment itself.
    pub line: u32,
    /// The rules it suppresses.
    pub rules: Vec<String>,
    /// The mandatory justification.
    pub reason: String,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Hard violations; any of these fails the run.
    pub violations: Vec<Diagnostic>,
    /// Soft findings (unused allows, stale registry entries); fail the run
    /// only under `--deny-warnings`.
    pub warnings: Vec<Diagnostic>,
    /// Every allow annotation in force, for the summary.
    pub allows: Vec<AllowRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the run passes.
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        self.violations.is_empty() && (!deny_warnings || self.warnings.is_empty())
    }

    /// Renders the full human-readable report.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for d in &self.violations {
            let _ = writeln!(out, "error: {d}");
        }
        for d in &self.warnings {
            let _ = writeln!(out, "warning: {d}");
        }
        if !self.allows.is_empty() {
            let _ = writeln!(out, "{} allow annotation(s) in force:", self.allows.len());
            for a in &self.allows {
                let _ = writeln!(
                    out,
                    "  {}:{}: allow({}) — {}",
                    a.file,
                    a.line,
                    a.rules.join(", "),
                    a.reason
                );
            }
        }
        let _ = writeln!(
            out,
            "checked {} file(s): {} violation(s), {} warning(s), {} allow(s)",
            self.files_scanned,
            self.violations.len(),
            self.warnings.len(),
            self.allows.len()
        );
        out
    }
}

/// Errors that abort a lint run before any rule executes.
#[derive(Debug)]
pub enum LintError {
    /// A file or directory could not be read.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The policy file failed to parse.
    Policy(PolicyError),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            LintError::Policy(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<PolicyError> for LintError {
    fn from(e: PolicyError) -> Self {
        LintError::Policy(e)
    }
}

/// A parsed allow annotation, tracked for usage.
#[derive(Debug)]
pub struct Allow {
    /// Rules this annotation suppresses.
    pub rules: Vec<String>,
    /// Justification text after the closing paren.
    pub reason: String,
    /// Line of the comment itself.
    pub line: u32,
    /// The code line the annotation covers (its own line for a trailing
    /// comment, the next code line for a standalone one).
    pub applies_line: u32,
    /// Set when the annotation suppresses at least one diagnostic.
    pub used: Cell<bool>,
}

/// One analysed source file: code tokens (comments stripped), per-token
/// test-region flags, raw lines for snippets, and its allow annotations.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Raw source lines (for snippets).
    pub lines: Vec<&'a str>,
    /// Non-comment tokens in source order.
    pub code: Vec<Token<'a>>,
    /// `in_test[i]` is true when `code[i]` sits inside `#[cfg(test)]` or
    /// the whole file is a test/bench/example target.
    pub in_test: Vec<bool>,
    /// Whether the whole file is test context.
    pub test_file: bool,
    /// Allow annotations, in file order.
    pub allows: Vec<Allow>,
}

impl FileCtx<'_> {
    /// The trimmed source line at 1-based `line`, or empty.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map_or(String::new(), |l| l.trim_end().to_string())
    }
}

/// Collects diagnostics, consulting each file's allow annotations.
#[derive(Default)]
pub struct Sink {
    /// The report under construction.
    pub report: LintReport,
}

impl Sink {
    /// Records a violation at `line` unless an allow annotation covers it.
    pub fn violation(&mut self, ctx: &FileCtx<'_>, line: u32, rule: &'static str, message: String) {
        for allow in &ctx.allows {
            if allow.applies_line == line && allow.rules.iter().any(|r| r == rule) {
                allow.used.set(true);
                return;
            }
        }
        self.report.violations.push(Diagnostic {
            file: ctx.path.clone(),
            line,
            rule,
            message,
            snippet: ctx.snippet(line),
        });
    }

    /// Records a warning (never suppressed by allows).
    pub fn warning(
        &mut self,
        file: &str,
        line: u32,
        rule: &'static str,
        message: String,
        snippet: String,
    ) {
        self.report.warnings.push(Diagnostic {
            file: file.to_string(),
            line,
            rule,
            message,
            snippet,
        });
    }
}

/// Loads the policy file at `path`.
///
/// # Errors
/// Fails if the file cannot be read or does not parse.
pub fn load_policy(path: &Path) -> Result<Policy, LintError> {
    let text = fs::read_to_string(path)
        .map_err(|source| LintError::Io { path: path.to_path_buf(), source })?;
    Ok(parse_policy(&text)?)
}

/// Runs the full pass over the tree rooted at `root` using `root/lint.toml`.
///
/// # Errors
/// Fails on unreadable files or a malformed policy; rule violations are
/// *not* errors — they land in the returned report.
pub fn run_workspace(root: &Path) -> Result<LintReport, LintError> {
    let policy = load_policy(&root.join("lint.toml"))?;
    run(root, &policy)
}

/// Runs the full pass over the tree rooted at `root` with an explicit
/// policy.  Scans every `.rs` file under `root/crates` and `root/src`,
/// minus the policy's excluded prefixes.
///
/// # Errors
/// Fails only on I/O problems (unreadable directory or file).
pub fn run(root: &Path, policy: &Policy) -> Result<LintReport, LintError> {
    let mut rel_paths = Vec::new();
    for sub in ["crates", "src"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, Path::new(sub), &mut rel_paths)?;
        }
    }
    rel_paths.retain(|rel| {
        let rel_str = path_to_slash(rel);
        !policy.exclude.iter().any(|p| rel_str == *p || rel_str.starts_with(&format!("{p}/")))
    });
    rel_paths.sort();

    let mut sources = Vec::with_capacity(rel_paths.len());
    for rel in &rel_paths {
        let abs = root.join(rel);
        let text =
            fs::read_to_string(&abs).map_err(|source| LintError::Io { path: abs, source })?;
        sources.push(text);
    }

    let mut sink = Sink::default();
    let mut ctxs = Vec::with_capacity(sources.len());
    for (rel, source) in rel_paths.iter().zip(&sources) {
        ctxs.push(build_ctx(&path_to_slash(rel), source, &mut sink));
    }
    sink.report.files_scanned = ctxs.len();

    for ctx in &ctxs {
        if policy
            .panic_crates
            .iter()
            .any(|c| ctx.path == *c || ctx.path.starts_with(&format!("{c}/")))
        {
            rules::panic_hygiene::check(ctx, &mut sink);
        }
        rules::lock_discipline::check(ctx, policy, &mut sink);
        rules::hot_path::check(ctx, policy, &mut sink);
    }
    rules::wire_consts::check(root, &ctxs, policy, &mut sink);
    rules::golden::check(root, &ctxs, policy, &mut sink);

    // Allows that suppressed nothing are warnings: either the violation
    // they covered was fixed (delete the annotation) or they were
    // misplaced (and are silently masking nothing).
    for ctx in &ctxs {
        for allow in &ctx.allows {
            sink.report.allows.push(AllowRecord {
                file: ctx.path.clone(),
                line: allow.line,
                rules: allow.rules.clone(),
                reason: allow.reason.clone(),
            });
            if !allow.used.get() {
                sink.report.warnings.push(Diagnostic {
                    file: ctx.path.clone(),
                    line: allow.line,
                    rule: "annotation",
                    message: format!(
                        "unused lint:allow({}) — it suppresses nothing; remove it",
                        allow.rules.join(", ")
                    ),
                    snippet: ctx.snippet(allow.line),
                });
            }
        }
    }
    Ok(sink.report)
}

/// Recursively collects `.rs` files under `dir`, pushing paths relative to
/// the workspace root.
fn collect_rs_files(dir: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries =
        fs::read_dir(dir).map_err(|source| LintError::Io { path: dir.to_path_buf(), source })?;
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io { path: dir.to_path_buf(), source })?;
        let path = entry.path();
        let name = entry.file_name();
        let rel_child = rel.join(&name);
        if path.is_dir() {
            if name != "target" {
                collect_rs_files(&path, &rel_child, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel_child);
        }
    }
    Ok(())
}

fn path_to_slash(p: &Path) -> String {
    p.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Builds the per-file context: lexes, strips comments, marks
/// `#[cfg(test)]` regions, and parses allow annotations (reporting
/// malformed ones straight into `sink`).
pub fn build_ctx<'a>(path: &str, source: &'a str, sink: &mut Sink) -> FileCtx<'a> {
    let tokens = lex(source);
    let test_file = is_test_path(path);
    let lines: Vec<&str> = source.lines().collect();

    let mut ctx = FileCtx {
        path: path.to_string(),
        lines,
        code: Vec::new(),
        in_test: Vec::new(),
        test_file,
        allows: Vec::new(),
    };
    parse_allows(&tokens, &mut ctx, sink);
    ctx.code = tokens.iter().filter(|t| !t.is_comment()).copied().collect();
    ctx.in_test = mark_test_regions(&ctx.code, test_file);
    ctx
}

/// Whether a workspace-relative path is test context in its entirety.
fn is_test_path(path: &str) -> bool {
    ["tests", "benches", "examples"].iter().any(|d| path.split('/').any(|seg| seg == *d))
}

/// Marks tokens inside `#[cfg(test)]`-attributed items.
fn mark_test_regions(code: &[Token<'_>], test_file: bool) -> Vec<bool> {
    let mut in_test = vec![test_file; code.len()];
    if test_file {
        return in_test;
    }
    let is = |i: usize, kind: TokenKind, text: &str| {
        code.get(i).is_some_and(|t| t.kind == kind && t.text == text)
    };
    let mut i = 0;
    while i < code.len() {
        // #[cfg(test)]  — seven tokens exactly.
        if is(i, TokenKind::Punct, "#")
            && is(i + 1, TokenKind::Punct, "[")
            && is(i + 2, TokenKind::Ident, "cfg")
            && is(i + 3, TokenKind::Punct, "(")
            && is(i + 4, TokenKind::Ident, "test")
            && is(i + 5, TokenKind::Punct, ")")
            && is(i + 6, TokenKind::Punct, "]")
        {
            // The attribute governs the next item: everything up to its
            // closing brace (or terminating semicolon for `mod tests;`).
            let mut j = i + 7;
            for flag in &mut in_test[i..j.min(code.len())] {
                *flag = true;
            }
            while j < code.len() {
                in_test[j] = true;
                match code[j].text {
                    ";" => break,
                    "{" => {
                        let mut depth = 1usize;
                        j += 1;
                        while j < code.len() && depth > 0 {
                            in_test[j] = true;
                            match code[j].text {
                                "{" => depth += 1,
                                "}" => depth -= 1,
                                _ => {}
                            }
                            j += 1;
                        }
                        j = j.saturating_sub(1);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Parses `// lint:allow(rule[, rule]) reason` annotations from the full
/// token stream (comments included).  Malformed annotations — missing rule
/// list, unknown rule name, or missing reason — are violations in their
/// own right.
fn parse_allows(tokens: &[Token<'_>], ctx: &mut FileCtx<'_>, sink: &mut Sink) {
    for (idx, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok.text.trim_start_matches('/').trim_start();
        let Some(rest) = body.strip_prefix("lint:allow") else { continue };
        let bad = |sink: &mut Sink, ctx: &FileCtx<'_>, message: String| {
            sink.report.violations.push(Diagnostic {
                file: ctx.path.clone(),
                line: tok.line,
                rule: "annotation",
                message,
                snippet: ctx.snippet(tok.line),
            });
        };
        let Some(rest) = rest.trim_start().strip_prefix('(') else {
            bad(sink, ctx, "malformed lint:allow — expected `lint:allow(rule, …) reason`".into());
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad(sink, ctx, "malformed lint:allow — missing `)`".into());
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            bad(sink, ctx, "lint:allow() names no rules".into());
            continue;
        }
        if let Some(unknown) = rules.iter().find(|r| !RULES.contains(&r.as_str())) {
            bad(
                sink,
                ctx,
                format!("lint:allow names unknown rule `{unknown}` (known: {})", RULES.join(", ")),
            );
            continue;
        }
        let reason = rest[close + 1..].trim().to_string();
        if reason.is_empty() {
            bad(
                sink,
                ctx,
                format!("lint:allow({}) must carry a reason after the `)`", rules.join(", ")),
            );
            continue;
        }
        // Trailing comment (code earlier on the same line) covers its own
        // line; a standalone comment covers the next code line.
        let trailing =
            tokens[..idx].iter().rev().take_while(|t| t.line == tok.line).any(|t| !t.is_comment());
        let applies_line = if trailing {
            tok.line
        } else {
            tokens[idx + 1..].iter().find(|t| !t.is_comment()).map_or(0, |t| t.line)
        };
        ctx.allows.push(Allow {
            rules,
            reason,
            line: tok.line,
            applies_line,
            used: Cell::new(false),
        });
    }
}

/// CRC-32 (IEEE 802.3, reflected — the same polynomial `eq_wire` uses)
/// over `data`, continuing from `state`.  Start with `0` by passing
/// `crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF` via [`crc32`]; the
/// two-step form exists so directory hashing can stream file by file.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    for &byte in data {
        state ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (state & 1).wrapping_neg();
            state = (state >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    state
}

/// One-shot CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// CRC-32 over a fixture directory: for each regular file in name order,
/// the file name bytes, a zero byte, the file contents, a zero byte.
/// Returns `None` when the directory is missing or empty — the wire rule
/// treats that as its own violation.
///
/// # Errors
/// Fails on unreadable entries.
pub fn fixture_dir_crc(dir: &Path) -> Result<Option<u32>, LintError> {
    if !dir.is_dir() {
        return Ok(None);
    }
    let mut names: Vec<String> = Vec::new();
    let entries =
        fs::read_dir(dir).map_err(|source| LintError::Io { path: dir.to_path_buf(), source })?;
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io { path: dir.to_path_buf(), source })?;
        if entry.path().is_file() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    if names.is_empty() {
        return Ok(None);
    }
    names.sort();
    let mut state = 0xFFFF_FFFFu32;
    for name in &names {
        let path = dir.join(name);
        let bytes =
            fs::read(&path).map_err(|source| LintError::Io { path: path.clone(), source })?;
        state = crc32_update(state, name.as_bytes());
        state = crc32_update(state, &[0]);
        state = crc32_update(state, &bytes);
        state = crc32_update(state, &[0]);
    }
    Ok(Some(state ^ 0xFFFF_FFFF))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_of<'a>(source: &'a str, sink: &mut Sink) -> FileCtx<'a> {
        build_ctx("crates/x/src/lib.rs", source, sink)
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}";
        let mut sink = Sink::default();
        let ctx = ctx_of(src, &mut sink);
        let unwrap_idx = ctx.code.iter().position(|t| t.text == "unwrap").expect("token present");
        assert!(ctx.in_test[unwrap_idx]);
        let live2 = ctx.code.iter().position(|t| t.text == "live2").expect("token present");
        assert!(!ctx.in_test[live2]);
    }

    #[test]
    fn test_paths_are_fully_test_context() {
        let mut sink = Sink::default();
        let ctx = build_ctx("crates/x/tests/it.rs", "fn f() { y.unwrap(); }", &mut sink);
        assert!(ctx.test_file);
        assert!(ctx.in_test.iter().all(|&b| b));
    }

    #[test]
    fn trailing_and_standalone_allows_bind_to_the_right_line() {
        let src = "\
fn f() {
    a.unwrap(); // lint:allow(panic) trailing reason
    // lint:allow(lock, panic) standalone reason
    b.lock();
}";
        let mut sink = Sink::default();
        let ctx = ctx_of(src, &mut sink);
        assert!(sink.report.violations.is_empty());
        assert_eq!(ctx.allows.len(), 2);
        assert_eq!((ctx.allows[0].line, ctx.allows[0].applies_line), (2, 2));
        assert_eq!((ctx.allows[1].line, ctx.allows[1].applies_line), (3, 4));
        assert_eq!(ctx.allows[1].rules, vec!["lock", "panic"]);
    }

    #[test]
    fn malformed_allows_are_violations() {
        for bad in [
            "// lint:allow(panic)",            // no reason
            "// lint:allow() because",         // no rules
            "// lint:allow(pnic) typo reason", // unknown rule
            "// lint:allow panic reason",      // no parens
            "// lint:allow(panic unclosed",    // no closing paren
        ] {
            let mut sink = Sink::default();
            let ctx = ctx_of(bad, &mut sink);
            assert_eq!(sink.report.violations.len(), 1, "{bad:?}");
            assert_eq!(sink.report.violations[0].rule, "annotation");
            assert!(ctx.allows.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn allow_suppresses_and_marks_used() {
        let src = "fn f() { a.unwrap(); } // lint:allow(panic) fine here";
        let mut sink = Sink::default();
        let ctx = ctx_of(src, &mut sink);
        sink.violation(&ctx, 1, "panic", "boom".into());
        assert!(sink.report.violations.is_empty());
        assert!(ctx.allows[0].used.get());
        // A different rule on the same line is NOT suppressed.
        sink.violation(&ctx, 1, "lock", "held".into());
        assert_eq!(sink.report.violations.len(), 1);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn diagnostics_render_file_line_rule() {
        let d = Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: "panic",
            message: "`.unwrap()` in serving code".into(),
            snippet: "    x.unwrap();".into(),
        };
        let text = d.to_string();
        assert!(text.starts_with("crates/x/src/lib.rs:7:panic: "));
        assert!(text.contains("x.unwrap();"));
    }
}

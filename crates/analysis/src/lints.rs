//! The workspace invariant lints L1–L7.
//!
//! Each lint mechanically enforces a discipline the engine's hot paths
//! established by convention (see README §"Static analysis & model
//! checking"):
//!
//! - **L1** `no-decode-in-block-pump` — no dictionary traffic in either
//!   direction (`decode*`/`Dictionary`, or `lookup*`/`intern*`) inside
//!   `next_block`/`extend_full_block` bodies: the block pump runs on the
//!   id layer; a per-row round trip through values there destroys the
//!   constant-delay guarantee the pipeline exists to provide.
//! - **L2** `no-locks-in-enumerate` — no `Mutex`/`.lock()` in
//!   `crates/enumerate`: enumerators own their cursors; a lock in the
//!   answer loop is a delay-bound violation waiting to happen.
//! - **L3** `no-single-thread-cells` — no `RefCell`/`Rc` in
//!   `storage`/`core`/`yannakakis`: the serve phase shares everything
//!   across threads, and `!Sync` interior mutability propagates virally.
//! - **L4** `frozen-types-assert-send-sync` — every `pub` type named
//!   `Frozen*` or `*Session` carries a compile-time `Send + Sync` assert
//!   (the whole point of freezing is cross-thread sharing).
//! - **L5** `no-lock-unwrap` — no `unwrap()`/`expect()`/`unwrap_or_else`
//!   directly on lock results; the one sanctioned recovery point is
//!   `ucq_storage::sync::lock_unpoisoned`, which carries a diagnostic.
//! - **L6** `unsafe-needs-safety-comment` — every `unsafe` keyword is
//!   preceded (within 3 lines) by a `// SAFETY:` comment.
//! - **L7** `no-panics-in-serve` — no `.unwrap()`/`.expect()` and no
//!   panicking slice-index (`x[i]`) in `crates/serve/src`: the serving
//!   runtime's whole contract is that a request failure becomes a typed
//!   `RequestError`, never a worker panic. `catch_unwind` is the net,
//!   not the plan.
//!
//! Scopes: L1/L4/L5 patrol every workspace crate except the offline
//! `crates/compat/*` stand-ins; L2/L3/L7 patrol the named crates; L6
//! patrols everything, compat included.

use crate::lexer::{Lexed, TokKind, Token};

/// One lint hit, before allowlisting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Lint code, `"L1"`…`"L7"`.
    pub code: &'static str,
    /// Workspace-relative path (`crates/storage/src/frozen.rs`).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The offending identifier/type — what an `allow.toml` entry's
    /// `type` key matches against.
    pub ident: String,
    /// Human explanation.
    pub message: String,
}

/// A lexed source file tagged with its workspace-relative path.
pub struct SourceFile {
    pub rel: String,
    pub lexed: Lexed,
}

fn is_compat(rel: &str) -> bool {
    rel.starts_with("crates/compat/")
}

/// The crate a path belongs to (`crates/storage`), or `"."` for the root
/// facade's `src/`.
fn crate_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.first() == Some(&"crates") && parts.len() > 2 {
        if parts[1] == "compat" && parts.len() > 3 {
            format!("crates/compat/{}", parts[2])
        } else {
            format!("crates/{}", parts[1])
        }
    } else {
        ".".to_string()
    }
}

/// Runs every lint over `files` and returns the raw findings,
/// deterministically ordered (file, line, code).
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !is_compat(&f.rel) {
            lint_l1(f, &mut out);
            lint_l5(f, &mut out);
        }
        if f.rel.starts_with("crates/enumerate/src") {
            lint_l2(f, &mut out);
        }
        if [
            "crates/storage/src",
            "crates/core/src",
            "crates/yannakakis/src",
        ]
        .iter()
        .any(|p| f.rel.starts_with(p))
        {
            lint_l3(f, &mut out);
        }
        if f.rel.starts_with("crates/serve/src") {
            lint_l7(f, &mut out);
        }
        lint_l6(f, &mut out);
    }
    lint_l4(files, &mut out);
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
    out
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i)
        .and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
}

/// Token index ranges (inclusive of braces) of the bodies of the named
/// functions. Tolerates bodyless trait-method declarations.
fn fn_bodies(toks: &[Token], names: &[&str]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) == Some("fn") {
            if let Some(name) = ident_at(toks, i + 1) {
                if names.contains(&name) {
                    let name = name.to_string();
                    // Find the body's `{` at paren/bracket depth 0,
                    // bailing on `;` (no body).
                    let mut j = i + 2;
                    let mut depth = 0i32;
                    let mut open = None;
                    while j < toks.len() {
                        match toks[j].kind {
                            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                            TokKind::Punct('{') if depth == 0 => {
                                open = Some(j);
                                break;
                            }
                            TokKind::Punct(';') if depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some(start) = open {
                        let mut braces = 0i32;
                        let mut k = start;
                        while k < toks.len() {
                            match toks[k].kind {
                                TokKind::Punct('{') => braces += 1,
                                TokKind::Punct('}') => {
                                    braces -= 1;
                                    if braces == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        out.push((start, k.min(toks.len() - 1), name));
                        i = k;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

fn lint_l1(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.lexed.tokens;
    for (start, end, fn_name) in fn_bodies(toks, &["next_block", "extend_full_block"]) {
        for t in &toks[start..=end] {
            if t.kind != TokKind::Ident {
                continue;
            }
            let to_values = t.text.starts_with("decode") || t.text == "Dictionary";
            let from_values = t.text.starts_with("lookup") || t.text.starts_with("intern");
            if to_values || from_values {
                out.push(Finding {
                    code: "L1",
                    file: f.rel.clone(),
                    line: t.line,
                    ident: t.text.clone(),
                    message: format!(
                        "`{}` inside `{fn_name}`: the block pump must stay on the \
                         id layer (decode once per emitted answer, never per row; \
                         never look a value back up)",
                        t.text
                    ),
                });
            }
        }
    }
}

fn lint_l2(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "Mutex" {
            out.push(Finding {
                code: "L2",
                file: f.rel.clone(),
                line: t.line,
                ident: t.text.clone(),
                message: "`Mutex` in the enumerate crate: enumerators own their \
                          state; locks break the per-answer delay bound"
                    .to_string(),
            });
        }
        if punct_at(toks, i, '.')
            && ident_at(toks, i + 1) == Some("lock")
            && punct_at(toks, i + 2, '(')
        {
            out.push(Finding {
                code: "L2",
                file: f.rel.clone(),
                line: t.line,
                ident: "lock".to_string(),
                message: "`.lock()` in the enumerate crate: no blocking in the \
                          answer loop"
                    .to_string(),
            });
        }
    }
}

fn lint_l3(f: &SourceFile, out: &mut Vec<Finding>) {
    for t in &f.lexed.tokens {
        if t.kind == TokKind::Ident && (t.text == "RefCell" || t.text == "Rc") {
            out.push(Finding {
                code: "L3",
                file: f.rel.clone(),
                line: t.line,
                ident: t.text.clone(),
                message: format!(
                    "`{}` in a serve-phase crate: `!Sync` interior mutability \
                     propagates into every type that embeds it",
                    t.text
                ),
            });
        }
    }
}

fn lint_l4(files: &[SourceFile], out: &mut Vec<Finding>) {
    use std::collections::{BTreeMap, BTreeSet};
    // crate -> (declared [name, file, line], asserted {name})
    let mut decls: BTreeMap<String, Vec<(String, String, u32)>> = BTreeMap::new();
    let mut asserted: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in files {
        if is_compat(&f.rel) {
            continue;
        }
        let krate = crate_of(&f.rel);
        let toks = &f.lexed.tokens;
        for i in 0..toks.len() {
            // `pub struct Name` / `pub enum Name` / `pub type Name`;
            // `pub(crate)` and friends are exempt (not part of the API).
            if ident_at(toks, i) == Some("pub") && !punct_at(toks, i + 1, '(') {
                if let Some(kw) = ident_at(toks, i + 1) {
                    if matches!(kw, "struct" | "enum" | "type" | "union") {
                        if let Some(name) = ident_at(toks, i + 2) {
                            if name.starts_with("Frozen") || name.ends_with("Session") {
                                decls.entry(krate.clone()).or_default().push((
                                    name.to_string(),
                                    f.rel.clone(),
                                    toks[i + 2].line,
                                ));
                            }
                        }
                    }
                }
            }
            // `assert_send_sync::<Name…>()`
            if ident_at(toks, i) == Some("assert_send_sync")
                && punct_at(toks, i + 1, ':')
                && punct_at(toks, i + 2, ':')
                && punct_at(toks, i + 3, '<')
            {
                if let Some(name) = ident_at(toks, i + 4) {
                    asserted
                        .entry(krate.clone())
                        .or_default()
                        .insert(name.to_string());
                }
            }
        }
    }
    for (krate, types) in decls {
        let have = asserted.get(&krate);
        for (name, file, line) in types {
            if have.is_none_or(|s| !s.contains(&name)) {
                out.push(Finding {
                    code: "L4",
                    file,
                    line,
                    ident: name.clone(),
                    message: format!(
                        "pub type `{name}` matches Frozen*/*Session but has no \
                         compile-time `assert_send_sync::<{name}>` in its crate \
                         (serve-phase types must be shareable by construction)"
                    ),
                });
            }
        }
    }
}

fn lint_l5(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.rel == "crates/storage/src/sync.rs" {
        return; // the sanctioned poison-recovery helper lives here
    }
    let toks = &f.lexed.tokens;
    for i in 0..toks.len() {
        if punct_at(toks, i, '.')
            && ident_at(toks, i + 1) == Some("lock")
            && punct_at(toks, i + 2, '(')
            && punct_at(toks, i + 3, ')')
            && punct_at(toks, i + 4, '.')
        {
            if let Some(m) = ident_at(toks, i + 5) {
                if matches!(m, "unwrap" | "expect" | "unwrap_or_else") {
                    out.push(Finding {
                        code: "L5",
                        file: f.rel.clone(),
                        line: toks[i + 1].line,
                        ident: m.to_string(),
                        message: format!(
                            "`.lock().{m}(…)` bypasses the sanctioned poison \
                             handler; use `ucq_storage::sync::lock_unpoisoned` \
                             so recovery carries a diagnostic"
                        ),
                    });
                }
            }
        }
    }
}

fn lint_l6(f: &SourceFile, out: &mut Vec<Finding>) {
    for t in &f.lexed.tokens {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            let covered = f.lexed.comments.iter().any(|c| {
                c.text.contains("SAFETY:") && c.line + 3 >= t.line && c.line <= t.line + 1
            });
            if !covered {
                out.push(Finding {
                    code: "L6",
                    file: f.rel.clone(),
                    line: t.line,
                    ident: "unsafe".to_string(),
                    message: "`unsafe` without a `// SAFETY:` comment within the \
                              3 preceding lines"
                        .to_string(),
                });
            }
        }
    }
}

/// Keywords that can legitimately precede `[` without the bracket being
/// an index expression (slice patterns, array types/literals in
/// bindings, `for [a, b] in …` destructuring, …).
fn keyword_before_bracket(word: &str) -> bool {
    matches!(
        word,
        "let"
            | "in"
            | "mut"
            | "ref"
            | "return"
            | "break"
            | "continue"
            | "match"
            | "if"
            | "else"
            | "move"
            | "as"
            | "const"
            | "static"
            | "use"
            | "pub"
            | "where"
            | "for"
            | "while"
            | "loop"
            | "fn"
            | "impl"
            | "dyn"
            | "type"
            | "struct"
            | "enum"
    )
}

fn lint_l7(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.lexed.tokens;
    for i in 0..toks.len() {
        // `.unwrap(` / `.expect(` — any receiver. The request path must
        // bubble a typed error, not convert it into a worker panic.
        if punct_at(toks, i, '.') && punct_at(toks, i + 2, '(') {
            if let Some(m) = ident_at(toks, i + 1) {
                if matches!(m, "unwrap" | "expect") {
                    out.push(Finding {
                        code: "L7",
                        file: f.rel.clone(),
                        line: toks[i + 1].line,
                        ident: m.to_string(),
                        message: format!(
                            "`.{m}(…)` in the serving runtime: a request \
                             failure must surface as a typed `RequestError`, \
                             never ride the panic path (`catch_unwind` is \
                             the net, not the plan)"
                        ),
                    });
                }
            }
        }
        // `expr[...]` — a `[` whose previous token ends an expression
        // (non-keyword identifier, `)` or `]`) is a panicking index.
        // Array literals/types, slice patterns, attributes (`#[…]`) and
        // macro brackets (`vec![…]`) all have a different predecessor.
        if punct_at(toks, i, '[') && i > 0 {
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !keyword_before_bracket(&prev.text),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            };
            if indexes {
                out.push(Finding {
                    code: "L7",
                    file: f.rel.clone(),
                    line: toks[i].line,
                    ident: format!("{}[", prev.text),
                    message: "slice/array indexing in the serving runtime \
                              panics on a bad index; use `.get(…)` and \
                              handle the miss as a typed error"
                        .to_string(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            lexed: lex(src),
        }
    }

    fn codes(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn l1_flags_decode_in_next_block_only() {
        let src = "
            impl E {
                fn helper(&self) { self.ctx.decode(id); }
                fn next_block(&mut self) -> usize {
                    let v = self.ctx.decode_tuple(ids);
                    v.len()
                }
            }";
        let fs = [file("crates/enumerate/src/x.rs", src)];
        let f = run_all(&fs);
        assert_eq!(codes(&f), vec!["L1"]);
        assert_eq!(f[0].ident, "decode_tuple");
    }

    #[test]
    fn l1_flags_value_lookups_in_next_block_too() {
        let src = "
            impl E {
                fn contains_with(&self) { self.ctx.lookup_row(vals, ids); }
                fn next_block(&mut self) -> usize {
                    if self.ctx.lookup_row(vals, ids) { self.ctx.intern(v); }
                    self.interleave(block)
                }
            }";
        let fs = [file("crates/core/src/x.rs", src)];
        let f = run_all(&fs);
        assert_eq!(codes(&f), vec!["L1", "L1"]);
        assert_eq!(
            (f[0].ident.as_str(), f[1].ident.as_str()),
            ("lookup_row", "intern")
        );
    }

    #[test]
    fn l1_ignores_trait_declarations_without_bodies() {
        let src = "trait T { fn next_block(&mut self) -> usize; } fn decode() {}";
        let fs = [file("crates/enumerate/src/x.rs", src)];
        assert!(run_all(&fs).is_empty());
    }

    #[test]
    fn l2_flags_locks_in_enumerate_but_not_elsewhere() {
        let src = "fn f(m: &Mutex<u32>) { let _ = m.lock(); }";
        let inside = [file("crates/enumerate/src/hot.rs", src)];
        assert_eq!(codes(&run_all(&inside)), vec!["L2", "L2"]);
        let outside = [file("crates/workloads/src/serving.rs", src)];
        assert!(run_all(&outside).is_empty());
    }

    #[test]
    fn l3_flags_refcell_and_rc_in_patrolled_crates() {
        let src = "use std::cell::RefCell; use std::rc::Rc;";
        let fs = [file("crates/core/src/engine.rs", src)];
        let f = run_all(&fs);
        assert_eq!(codes(&f), vec!["L3", "L3"]); // RefCell and Rc (not `rc`)
                                                 // The same tokens outside the patrolled crates are fine.
        let fs = [file("crates/query/src/cq.rs", src)];
        assert!(run_all(&fs).is_empty());
    }

    #[test]
    fn l4_requires_assert_for_frozen_and_session_types() {
        let good = "pub struct FrozenThing; \
                    const _: () = { assert_send_sync::<FrozenThing>(); };";
        let fs = [file("crates/storage/src/a.rs", good)];
        assert!(run_all(&fs).is_empty());

        let bad = "pub struct EvalSession { x: u32 }";
        let fs = [file("crates/storage/src/b.rs", bad)];
        let f = run_all(&fs);
        assert_eq!(codes(&f), vec!["L4"]);
        assert_eq!(f[0].ident, "EvalSession");

        // pub(crate) types are exempt; so are non-matching names.
        let exempt = "pub(crate) struct FrozenInner; pub struct Cursor;";
        let fs = [file("crates/storage/src/c.rs", exempt)];
        assert!(run_all(&fs).is_empty());
    }

    #[test]
    fn l4_assert_may_live_in_a_sibling_file_of_the_same_crate() {
        let decl = file("crates/core/src/engine.rs", "pub struct FrozenSession;");
        let asserts = file(
            "crates/core/src/static_asserts.rs",
            "const _: () = { assert_send_sync::<FrozenSession>(); };",
        );
        assert!(run_all(&[decl, asserts]).is_empty());
    }

    #[test]
    fn l5_flags_lock_unwrap_outside_the_helper() {
        let src = "fn f(m: &Mutex<u32>) { let _ = m.lock().unwrap(); }";
        let fs = [file("crates/storage/src/context.rs", src)];
        assert_eq!(codes(&run_all(&fs)), vec!["L5"]);
        let fs = [file("crates/storage/src/sync.rs", src)];
        assert!(run_all(&fs).is_empty());
    }

    #[test]
    fn l7_flags_unwrap_expect_and_indexing_in_serve_only() {
        let src = "fn f(v: &[u32], m: Option<u32>) -> u32 { m.unwrap() + v[0] }";
        let inside = [file("crates/serve/src/runtime.rs", src)];
        let f = run_all(&inside);
        assert_eq!(codes(&f), vec!["L7", "L7"]);
        assert_eq!(f[0].ident, "unwrap");
        assert_eq!(f[1].ident, "v[");
        // The same code outside crates/serve/src is not L7's business
        // (serve's tests/ directory included — panicking asserts are the
        // point there).
        let outside = [file("crates/storage/src/x.rs", src)];
        assert!(run_all(&outside).is_empty());
        let tests_dir = [file("crates/serve/tests/runtime.rs", src)];
        assert!(run_all(&tests_dir).is_empty());
    }

    #[test]
    fn l7_flags_expect_and_chained_or_call_indexing() {
        let src =
            "fn f(g: &Grid) -> u32 { g.rows().expect(\"rows\"); g.row(0)[1] + g.cells[0][2] }";
        let fs = [file("crates/serve/src/queue.rs", src)];
        let f = run_all(&fs);
        assert_eq!(codes(&f), vec!["L7", "L7", "L7", "L7"]);
        assert_eq!(f[0].ident, "expect");
        assert_eq!(f[1].ident, ")[");
        assert_eq!(f[2].ident, "cells[");
        assert_eq!(f[3].ident, "][");
    }

    #[test]
    fn l7_ignores_non_indexing_brackets() {
        let src = "
            #[derive(Debug)]
            pub struct S { buf: [u8; 4] }
            fn f() -> Vec<u32> {
                let a = [1, 2, 3];
                let [x, ..] = a;
                for [p, q] in pairs() { use_both(p, q); }
                vec![x]
            }
            fn g(s: &str) -> Option<u32> { s.parse().ok() }";
        let fs = [file("crates/serve/src/reply.rs", src)];
        assert!(run_all(&fs).is_empty());
    }

    #[test]
    fn l6_requires_safety_comment_even_in_compat() {
        let bad = "fn f() { unsafe { g(); } }";
        let fs = [file("crates/compat/rand/src/lib.rs", bad)];
        assert_eq!(codes(&run_all(&fs)), vec!["L6"]);
        let good = "fn f() {\n    // SAFETY: g has no preconditions.\n    unsafe { g(); }\n}";
        let fs = [file("crates/compat/rand/src/lib.rs", good)];
        assert!(run_all(&fs).is_empty());
        // `unsafe` in strings and comments never counts.
        let quoted = "fn f() { let s = \"unsafe\"; } // unsafe mentioned";
        let fs = [file("crates/query/src/parse.rs", quoted)];
        assert!(run_all(&fs).is_empty());
    }
}

//! `ucq-analysis`: the workspace invariant linter behind `ucq lint`.
//!
//! A dependency-free static-analysis pass purpose-built for this
//! codebase: a hand-rolled Rust [lexer] feeds seven invariant
//! [lints] (L1–L7) that mechanically enforce the hot-path
//! disciplines the enumeration engine's delay guarantees rest on, with an
//! explicit committed [allowlist](allow) (`analysis/allow.toml`) for the
//! few reviewed exceptions. See the README's "Static analysis & model
//! checking" section for the lint catalogue.
//!
//! The linter patrols every `.rs` file under the workspace's `src/`
//! directories (unit tests included — they share the files; integration
//! `tests/` directories are out of scope). It is wired in twice: as the
//! `ucq lint` CLI subcommand (CI's `analysis` job) and as this crate's
//! own `workspace_clean` integration test, so a plain `cargo test` also
//! fails on a violated invariant.

#![forbid(unsafe_code)]

pub mod allow;
pub mod lexer;
pub mod lints;

use allow::Waiver;
use lints::{Finding, SourceFile};
use std::path::{Path, PathBuf};

/// The result of linting a workspace.
#[derive(Debug)]
pub struct Outcome {
    /// Findings not excused by the allowlist, ordered (file, line, code).
    pub findings: Vec<Finding>,
    /// Findings excused by a waiver.
    pub waived: usize,
    /// Waivers that matched nothing (an error: stale waivers re-open the
    /// hole they once excused).
    pub stale: Vec<Waiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// Whether the workspace is clean (no findings, no stale waivers).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale.is_empty()
    }
}

/// Walks up from `start` to the workspace root (the first ancestor whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace-relative paths of every patrolled source file: the root
/// facade's `src/` plus every `src/` tree under `crates/` (including the
/// compat crates — L6 patrols them too).
fn patrolled_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut abs = Vec::new();
    collect_rs(&root.join("src"), &mut abs);
    let mut crate_dirs = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.filter_map(Result::ok) {
            let p = e.path();
            if p.is_dir() {
                if p.join("Cargo.toml").is_file() {
                    crate_dirs.push(p);
                } else {
                    stack.push(p);
                }
            }
        }
    }
    crate_dirs.sort();
    for c in crate_dirs {
        collect_rs(&c.join("src"), &mut abs);
    }
    Ok(abs)
}

/// Lints the workspace at `root` against `root/analysis/allow.toml` (an
/// absent allowlist means "no waivers").
pub fn lint_workspace(root: &Path) -> Result<Outcome, String> {
    let files = patrolled_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    if files.is_empty() {
        return Err(format!(
            "no source files found under {} — wrong root?",
            root.display()
        ));
    }
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push(SourceFile {
            rel,
            lexed: lexer::lex(&text),
        });
    }
    let raw = lints::run_all(&sources);

    let allow_path = root.join("analysis").join("allow.toml");
    let waivers = match std::fs::read_to_string(&allow_path) {
        Ok(text) => allow::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("reading {}: {e}", allow_path.display())),
    };

    let mut used = vec![false; waivers.len()];
    let mut findings = Vec::new();
    let mut waived = 0usize;
    for f in raw {
        match waivers.iter().position(|w| w.matches(&f)) {
            Some(i) => {
                used[i] = true;
                waived += 1;
            }
            None => findings.push(f),
        }
    }
    let stale = waivers
        .into_iter()
        .zip(used)
        .filter_map(|(w, u)| (!u).then_some(w))
        .collect();
    Ok(Outcome {
        findings,
        waived,
        stale,
        files_scanned: sources.len(),
    })
}

/// Renders an [`Outcome`] as the `ucq lint` report.
pub fn render(outcome: &Outcome) -> String {
    let mut s = String::new();
    for f in &outcome.findings {
        s.push_str(&format!(
            "{} {}:{} `{}` — {}\n",
            f.code, f.file, f.line, f.ident, f.message
        ));
    }
    for w in &outcome.stale {
        s.push_str(&format!(
            "STALE analysis/allow.toml:{} — waiver ({} {}{}) matches nothing; \
             delete it\n",
            w.line,
            w.code,
            w.file,
            w.ident
                .as_deref()
                .map(|t| format!(", type {t}"))
                .unwrap_or_default(),
        ));
    }
    s.push_str(&format!(
        "ucq lint: {} finding(s), {} waived, {} stale waiver(s); {} files scanned\n",
        outcome.findings.len(),
        outcome.waived,
        outcome.stale.len(),
        outcome.files_scanned,
    ));
    s
}

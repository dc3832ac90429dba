//! The `ucq` command-line tool.
//!
//! ```text
//! ucq classify <query-file>                 three-way verdict + certificate
//! ucq explain  <query-file> [<instance>]    per-member structure report;
//!                                           with an instance, a costed plan
//!                                           dump (stats, estimates, cache key)
//! ucq run      <query-file> <instance>      enumerate answers (DelayClin
//!                                           strategy when available)
//!              [--limit N] [--naive] [--stats]
//! ucq decide   <query-file> <instance>      answer existence
//! ucq catalog                               the paper's example table
//! ucq serve-bench <query-file> <instance>   resilient-serving load run
//!              [--workers N] [--requests N] [--queue N] [--chaos]
//! ucq lint     [<workspace-root>]           workspace invariant lints
//!                                           (L1–L7, see ucq-analysis)
//! ```
//!
//! Query files use the parser syntax (one rule per line); instance files use
//! the fact format of `ucq_storage::parse_instance`. All command logic lives
//! in this library so it is unit-testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use ucq_core::{classify, Strategy, UcqEngine, Verdict};
use ucq_enumerate::{Budgeted, Enumerator, QueryBudget, VecEnumerator};
use ucq_query::{parse_ucq, Ucq};
use ucq_storage::{parse_instance, CtxView, Instance};
use ucq_workloads::{drive, Churn, LoadSpec};

/// A CLI failure: message + suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Usage text.
pub const USAGE: &str = "usage:
  ucq classify <query-file>
  ucq explain  <query-file> [<instance-file>]
  ucq run      <query-file> <instance-file> [--limit N] [--naive] [--stats]
  ucq decide   <query-file> <instance-file>
  ucq catalog
  ucq serve-bench <query-file> <instance-file> [--workers N] [--requests N] [--queue N] [--chaos]
  ucq lint     [<workspace-root>]

query files: one rule per line, e.g.  Q(x, y) <- R(x, z), S(z, y)
instance files: facts, e.g.           R(1, 2). S(2, 3).";

/// Entry point: dispatches on argv (without the program name), returning
/// the text to print.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("classify") => {
            let [path] = expect_args(args, 1)?;
            cmd_classify(&load_query(&path)?)
        }
        Some("explain") => match &args[1..] {
            [q] => cmd_explain(&load_query(q)?, None),
            [q, i] => cmd_explain(&load_query(q)?, Some(&load_instance(i)?)),
            _ => Err(CliError::new(USAGE)),
        },
        Some("run") => {
            let (paths, flags) = split_flags(&args[1..]);
            if paths.len() != 2 {
                return Err(CliError::new(USAGE));
            }
            let limit = flag_value(&flags, "--limit")?
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|e| CliError::new(format!("bad --limit: {e}")))
                })
                .transpose()?;
            cmd_run(
                &load_query(&paths[0])?,
                &load_instance(&paths[1])?,
                limit,
                flags.iter().any(|f| f == "--naive"),
                flags.iter().any(|f| f == "--stats"),
            )
        }
        Some("decide") => {
            let [q, i] = expect_args(args, 2)?;
            cmd_decide(&load_query(&q)?, &load_instance(&i)?)
        }
        Some("catalog") => Ok(cmd_catalog()),
        Some("serve-bench") => {
            let (paths, flags) = split_flags(&args[1..]);
            if paths.len() != 2 {
                return Err(CliError::new(USAGE));
            }
            let workers = parsed_flag(&flags, "--workers")?.unwrap_or(4);
            let requests = parsed_flag(&flags, "--requests")?.unwrap_or(64);
            let queue = parsed_flag(&flags, "--queue")?;
            cmd_serve_bench(
                &load_query(&paths[0])?,
                &load_instance(&paths[1])?,
                workers,
                requests,
                queue,
                flags.iter().any(|f| f == "--chaos"),
            )
        }
        Some("lint") => match &args[1..] {
            [] => cmd_lint(None),
            [root] => cmd_lint(Some(root)),
            _ => Err(CliError::new(USAGE)),
        },
        Some("--help") | Some("-h") | Some("help") => Ok(USAGE.to_string()),
        _ => Err(CliError::new(USAGE)),
    }
}

fn expect_args<const N: usize>(args: &[String], n: usize) -> Result<[String; N], CliError> {
    let rest = &args[1..];
    if rest.len() != n {
        return Err(CliError::new(USAGE));
    }
    Ok(std::array::from_fn(|i| rest[i].clone()))
}

/// Flags that consume the following argument as their value.
const VALUE_FLAGS: [&str; 4] = ["--limit", "--workers", "--requests", "--queue"];

fn split_flags(rest: &[String]) -> (Vec<String>, Vec<String>) {
    let mut paths = Vec::new();
    let mut flags = Vec::new();
    let mut it = rest.iter().peekable();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            flags.push(a.clone());
            if VALUE_FLAGS.contains(&a.as_str()) {
                if let Some(v) = it.next() {
                    flags.push(v.clone());
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    (paths, flags)
}

fn flag_value(flags: &[String], name: &str) -> Result<Option<String>, CliError> {
    match flags.iter().position(|f| f == name) {
        None => Ok(None),
        Some(i) => flags
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| CliError::new(format!("{name} needs a value"))),
    }
}

fn parsed_flag(flags: &[String], name: &str) -> Result<Option<usize>, CliError> {
    flag_value(flags, name)?
        .map(|v| {
            v.parse::<usize>()
                .map_err(|e| CliError::new(format!("bad {name}: {e}")))
        })
        .transpose()
}

fn load_query(path: &str) -> Result<Ucq, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
    parse_ucq(&text).map_err(|e| CliError::new(format!("{path}: {e}")))
}

fn load_instance(path: &str) -> Result<Instance, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
    parse_instance(&text).map_err(|e| CliError::new(format!("{path}: {e}")))
}

fn cmd_classify(ucq: &Ucq) -> Result<String, CliError> {
    let c = classify(ucq);
    let mut out = String::new();
    let _ = writeln!(out, "query:\n{}", c.minimized);
    if c.kept.len() != ucq.len() {
        let _ = writeln!(
            out,
            "(redundant members removed; kept originals {:?})",
            c.kept
        );
    }
    let _ = writeln!(out, "\nper-member status (Theorem 3): {:?}", c.statuses);
    match &c.verdict {
        Verdict::FreeConnex { plan } => {
            let _ = writeln!(out, "verdict: FREE-CONNEX — in DelayClin");
            if plan.atoms.is_empty() {
                let _ = writeln!(out, "  all members free-connex (Theorem 4 / Algorithm 1)");
            }
            for atom in &plan.atoms {
                let _ = writeln!(
                    out,
                    "  virtual atom {} on member {} ← provided by member {} (S = {}, {} uses, stage {})",
                    atom.rel_name,
                    atom.target,
                    atom.provenance.provider,
                    atom.provenance.s,
                    atom.provenance.uses.len(),
                    atom.provenance.stage
                );
            }
        }
        Verdict::Intractable { witness } => {
            let _ = writeln!(
                out,
                "verdict: INTRACTABLE — {} (assuming {})",
                witness.reference(),
                witness.hypothesis()
            );
        }
        Verdict::Unknown { notes } => {
            let _ = writeln!(out, "verdict: UNKNOWN — outside the proven classes");
            for n in notes {
                let _ = writeln!(out, "  note: {n}");
            }
        }
    }
    Ok(out)
}

fn cmd_explain(ucq: &Ucq, inst: Option<&Instance>) -> Result<String, CliError> {
    let mut out = String::new();
    for (i, cq) in ucq.cqs().iter().enumerate() {
        let _ = writeln!(out, "member {i}: {cq}");
        let _ = writeln!(
            out,
            "  variables: {}  atoms: {}  self-join free: {}",
            cq.n_vars(),
            cq.atoms().len(),
            cq.is_self_join_free()
        );
        let _ = writeln!(
            out,
            "  acyclic: {}  free-connex: {}",
            cq.is_acyclic(),
            cq.is_free_connex()
        );
        let paths = cq.free_paths();
        if paths.is_empty() {
            let _ = writeln!(out, "  free-paths: none");
        } else {
            for p in paths {
                let names: Vec<&str> = p.0.iter().map(|&v| cq.var_name(v)).collect();
                let _ = writeln!(out, "  free-path: ({})", names.join(", "));
            }
        }
        let _ = writeln!(out);
    }
    if let Some(inst) = inst {
        out.push_str(&explain_plan(ucq, inst));
    }
    Ok(out)
}

/// What the context holds for `rel` once a request has run: the mirror's
/// segments and tombstones, and the index cache's work over the mirror and
/// its normalizations. `None` if the relation was never interned.
fn storage_line(ctx: &CtxView, rel: &std::sync::Arc<ucq_storage::Relation>) -> Option<String> {
    let churn = ctx.churn_of(rel)?;
    Some(format!(
        "{} segment(s), {} live / {} dead rows, {:.1}% tombstones; \
         indexes: {} built, {} reused, {} merged",
        churn.segments,
        churn.live_rows,
        churn.dead_rows,
        churn.tombstone_fraction * 100.0,
        churn.indexes.builds,
        churn.indexes.hits,
        churn.indexes.merged
    ))
}

/// The `EXPLAIN`-style dump: statistics the planner harvests, the plan
/// cache key, and the costed plan with per-atom cardinality estimates.
fn explain_plan(ucq: &Ucq, inst: &Instance) -> String {
    let mut out = String::new();
    let engine = UcqEngine::new(ucq.clone());
    let c = engine.classification();
    let ctx = CtxView::new();
    // Prepare one session first, so the storage lines show what a request
    // leaves in the caches (the naive fallback prepares nothing, and an
    // instance the query cannot run over is `ucq run`'s to report).
    if engine.strategy() != Strategy::Naive {
        let _ = engine.session_in(&ctx, inst).decide();
    }
    let _ = writeln!(out, "planner (over the minimized union):");
    let _ = writeln!(out, "  statistics:");
    for name in c.minimized.relation_names() {
        match inst.get_shared(name) {
            Some(rel) => {
                let stats = ctx.rel_stats(&ctx.interned_rel(&rel));
                let _ = writeln!(
                    out,
                    "    {name}: {} rows, distinct {:?}, max fanout {:?}",
                    stats.rows, stats.distinct, stats.max_fanout
                );
                if let Some(line) = storage_line(&ctx, &rel) {
                    let _ = writeln!(out, "      storage: {line}");
                }
            }
            None => {
                let _ = writeln!(out, "    {name}: absent from the instance");
            }
        }
    }
    let ingest = ctx.ingest_stats();
    let _ = writeln!(
        out,
        "  dictionary: {} distinct value(s) interned; ingest: {} insert(s), {} delete(s), {} epoch bump(s)",
        ctx.dict_len(),
        ingest.inserts,
        ingest.deletes,
        ingest.epoch_bumps
    );
    let costed = engine.search().map(|search| search.plan(inst, &ctx));
    let _ = writeln!(
        out,
        "  plan cache key: fingerprint {:016x} @ stats epoch {}",
        c.minimized.fingerprint(),
        ctx.stats_epoch()
    );
    match costed {
        None => {
            let _ = writeln!(
                out,
                "  plan: none — no union extension makes every member free-connex"
            );
        }
        Some(cp) => {
            let _ = writeln!(out, "  candidates costed: {}", cp.candidates_costed);
            if cp.plan.atoms.is_empty() {
                let _ = writeln!(
                    out,
                    "  plan: all members free-connex — no materializations needed"
                );
            }
            for (atom, est) in cp.plan.atoms.iter().zip(&cp.estimates) {
                let _ = writeln!(
                    out,
                    "  materialize {} on member {} ← member {} (S = {}, stage {}), est ~{est:.0} rows",
                    atom.rel_name,
                    atom.target,
                    atom.provenance.provider,
                    atom.provenance.s,
                    atom.provenance.stage
                );
            }
        }
    }
    out
}

fn cmd_run(
    ucq: &Ucq,
    inst: &Instance,
    limit: Option<usize>,
    force_naive: bool,
    stats: bool,
) -> Result<String, CliError> {
    let engine = UcqEngine::new(ucq.clone());
    let mut out = String::new();
    let strategy = if force_naive {
        Strategy::Naive
    } else {
        engine.strategy()
    };
    let _ = writeln!(out, "strategy: {strategy:?}");
    // The request's own context, kept so `--stats` can say what it cached.
    let ctx = CtxView::new();
    let started = std::time::Instant::now();
    let eval_error = |e: ucq_core::EvalError| CliError::new(e.to_string());
    let (count, truncated_by, rows) = if force_naive {
        let all = engine.enumerate_naive(inst).map_err(eval_error)?;
        let page = print_answers(VecEnumerator::new(all), limit, &mut out);
        (page.answers_emitted(), page.truncated_by(), None)
    } else {
        let answers = engine.enumerate_in(&ctx, inst).map_err(eval_error)?;
        let page = print_answers(answers, limit, &mut out);
        let (count, truncated_by) = (page.answers_emitted(), page.truncated_by());
        let stream = page.into_inner();
        let rows = (stream.rows_pulled(), stream.rows_decoded());
        (count, truncated_by, Some(rows))
    };
    if stats {
        let _ = writeln!(
            out,
            "-- {count} answer(s) in {:?} over {} tuples",
            started.elapsed(),
            inst.total_tuples()
        );
        if let Some(why) = truncated_by {
            let _ = writeln!(out, "-- truncated by {why}");
        }
        if let Some((pulled, decoded)) = rows {
            let _ = writeln!(out, "-- {pulled} row(s) pulled, {decoded} decoded");
        }
        for name in engine.classification().minimized.relation_names() {
            let line = inst
                .get_shared(name)
                .and_then(|rel| storage_line(&ctx, &rel));
            if let Some(line) = line {
                let _ = writeln!(out, "-- {name}: {line}");
            }
        }
    }
    Ok(out)
}

/// Prints the answers of one request, at most `limit` of them: the limit
/// is the request's answer cap, so a block-decoding stream is told about
/// it up front and prepares `limit + 1` rows — the one beyond is what says
/// whether the output was cut — not a block. Returns the drained page (its
/// count, why it stopped early if it did, and the stream).
fn print_answers<E: Enumerator>(answers: E, limit: Option<usize>, out: &mut String) -> Budgeted<E> {
    let budget = match limit {
        Some(n) => QueryBudget::unlimited().with_max_answers(n),
        None => QueryBudget::unlimited(),
    };
    let mut page = Budgeted::new(answers, budget);
    while let Some(t) = page.next() {
        let _ = writeln!(out, "{t}");
    }
    page
}

fn cmd_decide(ucq: &Ucq, inst: &Instance) -> Result<String, CliError> {
    let engine = UcqEngine::new(ucq.clone());
    let yes = engine
        .session(inst)
        .decide()
        .map_err(|e| CliError::new(e.to_string()))?;
    Ok(format!("{}\n", if yes { "yes" } else { "no" }))
}

/// `ucq serve-bench`: freeze one session and push a request load through
/// the resilient `ucq-serve` worker pool, reporting the full outcome
/// ledger (completions, sheds, timeouts, panics, queue depth) alongside
/// throughput. `--chaos` switches from the steady all-clean mix to the
/// canned chaos mix (deadlines every 5th, pre-fired cancels every 7th,
/// fault-armed every 3rd — the faults only fire when the binary was built
/// with `--cfg ucq_fault_inject`).
fn cmd_serve_bench(
    ucq: &Ucq,
    inst: &Instance,
    workers: usize,
    requests: usize,
    queue: Option<usize>,
    chaos: bool,
) -> Result<String, CliError> {
    if workers == 0 || requests == 0 {
        return Err(CliError::new("--workers and --requests must be positive"));
    }
    let engine = UcqEngine::new(ucq.clone());
    let mut spec = if chaos {
        LoadSpec::chaos(workers, requests)
    } else {
        LoadSpec::steady(workers, workers.max(2), requests)
    };
    if let Some(capacity) = queue {
        if capacity == 0 {
            return Err(CliError::new("--queue must be positive"));
        }
        spec.queue_capacity = capacity;
    }
    let report =
        drive(&engine, inst, Churn::NONE, &spec).map_err(|e| CliError::new(e.to_string()))?;
    let ledger = report.serve;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve-bench: {} worker(s), queue {}, {} request(s){}",
        spec.workers,
        spec.queue_capacity,
        spec.requests,
        if chaos { ", chaos mix" } else { "" }
    );
    let _ = writeln!(
        out,
        "  served {} (partial {}, timed out {}), shed {}, panicked {}, drained {}",
        report.drains,
        ledger.partial,
        ledger.timed_out,
        ledger.shed,
        ledger.panicked,
        ledger.drained
    );
    let _ = writeln!(
        out,
        "  ledger: {} of {} submitted accounted",
        ledger.accounted(),
        ledger.submitted
    );
    let _ = writeln!(
        out,
        "  oracle: {} of {} drain(s) match a fresh build",
        report.matched(),
        report.drains
    );
    let _ = writeln!(
        out,
        "  {} answers in {:?} ({:.0} answers/sec), queue high-water {}",
        report.total_answers,
        report.elapsed,
        report.answers_per_sec(),
        ledger.queue_high_water
    );
    let _ = writeln!(
        out,
        "  latency (submit→resolution): median {} ns, p99 {} ns",
        report.median_resolution_ns(),
        report.p99_resolution_ns()
    );
    Ok(out)
}

/// `ucq lint`: run the L1–L7 workspace invariant lints (see the
/// `ucq-analysis` crate and the README's "Static analysis & model
/// checking" section). With no argument the workspace root is found by
/// walking up from the current directory; violations exit nonzero.
fn cmd_lint(root: Option<&str>) -> Result<String, CliError> {
    let root = match root {
        Some(p) => {
            let p = std::path::PathBuf::from(p);
            if !p.join("Cargo.toml").is_file() {
                return Err(CliError::new(format!(
                    "{}: not a workspace root (no Cargo.toml)",
                    p.display()
                )));
            }
            p
        }
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| CliError::new(format!("cannot read current dir: {e}")))?;
            ucq_analysis::find_workspace_root(&cwd).ok_or_else(|| {
                CliError::new(
                    "no workspace root above the current directory; pass one: ucq lint <root>",
                )
            })?
        }
    };
    let outcome = ucq_analysis::lint_workspace(&root).map_err(CliError::new)?;
    let report = ucq_analysis::render(&outcome);
    if outcome.is_clean() {
        Ok(report)
    } else {
        Err(CliError {
            message: report,
            code: 1,
        })
    }
}

fn cmd_catalog() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<16} {:<28} description", "id", "paper ref");
    for e in ucq_workloads::catalog() {
        let _ = writeln!(out, "{:<16} {:<28} {}", e.id, e.paper_ref, e.description);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("ucq_cli_test_{name}_{}", std::process::id()));
        std::fs::write(&path, content).expect("temp write");
        path.to_string_lossy().into_owned()
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn classify_example2() {
        let q = write_temp(
            "classify_q",
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\nQ2(x, y, w) <- R1(x, y), R2(y, w)",
        );
        let out = dispatch(&args(&["classify", &q])).unwrap();
        assert!(out.contains("FREE-CONNEX"), "{out}");
        assert!(out.contains("virtual atom"));
    }

    #[test]
    fn classify_hard_query() {
        let q = write_temp("classify_hard", "Q(x, y) <- A(x, z), B(z, y)");
        let out = dispatch(&args(&["classify", &q])).unwrap();
        assert!(out.contains("INTRACTABLE"), "{out}");
        assert!(out.contains("mat-mul"));
    }

    #[test]
    fn explain_lists_free_paths() {
        let q = write_temp("explain_q", "Q(x, y) <- A(x, z), B(z, y)");
        let out = dispatch(&args(&["explain", &q])).unwrap();
        assert!(out.contains("free-path: (x, z, y)"), "{out}");
    }

    #[test]
    fn explain_with_instance_dumps_costed_plan() {
        let q = write_temp(
            "explain_plan_q",
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\nQ2(x, y, w) <- R1(x, y), R2(y, w)",
        );
        let i = write_temp(
            "explain_plan_i",
            "R1(1, 2). R1(3, 4). R2(2, 5). R2(4, 6). R3(5, 7). R3(6, 8).",
        );
        let out = dispatch(&args(&["explain", &q, &i])).unwrap();
        assert!(out.contains("planner (over the minimized union):"), "{out}");
        assert!(out.contains("R1: 2 rows"), "{out}");
        assert!(
            out.contains("storage: 1 segment(s), 2 live / 0 dead rows, 0.0% tombstones; indexes: "),
            "{out}"
        );
        assert!(out.contains(" built, "), "{out}");
        assert!(out.contains("dictionary: "), "{out}");
        assert!(out.contains("plan cache key: fingerprint"), "{out}");
        assert!(out.contains("candidates costed:"), "{out}");
        assert!(out.contains("materialize @prov_"), "{out}");
        assert!(out.contains("est ~"), "{out}");
    }

    #[test]
    fn explain_with_instance_reports_missing_relations() {
        let q = write_temp("explain_missing_q", "Q(x, y) <- R(x, z), S(z, y), T(y)");
        let i = write_temp("explain_missing_i", "R(1, 2). S(2, 3).");
        let out = dispatch(&args(&["explain", &q, &i])).unwrap();
        assert!(out.contains("T: absent from the instance"), "{out}");
    }

    #[test]
    fn run_and_decide() {
        let q = write_temp("run_q", "Q(x, y) <- R(x, z), S(z, y)");
        let i = write_temp("run_i", "R(1, 2). S(2, 3). S(2, 4).");
        let out = dispatch(&args(&["run", &q, &i, "--stats"])).unwrap();
        assert!(out.contains("(1, 3)") && out.contains("(1, 4)"), "{out}");
        assert!(out.contains("2 answer(s)"), "{out}");
        assert!(
            out.contains("-- R: 1 segment(s), 1 live / 0 dead rows"),
            "{out}"
        );

        let out = dispatch(&args(&["decide", &q, &i])).unwrap();
        assert_eq!(out, "yes\n");

        let empty = write_temp("run_empty", "R(1, 2).");
        let out = dispatch(&args(&["decide", &q, &empty])).unwrap();
        assert_eq!(out, "no\n");
    }

    #[test]
    fn run_with_limit_and_naive() {
        let q = write_temp("limit_q", "Q(x, y) <- R(x, y)");
        let i = write_temp("limit_i", "R(1, 1). R(2, 2). R(3, 3).");
        let out = dispatch(&args(&["run", &q, &i, "--limit", "2"])).unwrap();
        assert_eq!(out.lines().filter(|l| l.starts_with('(')).count(), 2);
        let out = dispatch(&args(&["run", &q, &i, "--naive"])).unwrap();
        assert!(out.contains("strategy: Naive"));
        // The cut is reported, and only when it was one.
        for (limit, cut) in [("2", true), ("3", false), ("9", false)] {
            for naive in [&["--naive"][..], &[]] {
                let mut argv = vec!["run", &q, &i, "--stats", "--limit", limit];
                argv.extend_from_slice(naive);
                let out = dispatch(&args(&argv)).unwrap();
                assert_eq!(out.contains("-- truncated by max-answers"), cut, "{out}");
            }
        }
    }

    #[test]
    fn a_limit_reaches_the_block_decoder_as_the_answer_cap() {
        let q = write_temp("cap_q", "Q1(x, y) <- R(x, y)\nQ2(x, y) <- S(x, y)");
        let facts: String = (0..1500)
            .map(|k| format!("R({k}, {k}). S({}, {k}). ", k + 700))
            .collect();
        let i = write_temp("cap_i", &facts);
        // `--limit 2` prepares two rows and the one beyond that proves the
        // cut: not a 512-row block, and not a row past that.
        let out = dispatch(&args(&["run", &q, &i, "--limit", "2", "--stats"])).unwrap();
        assert!(out.contains("strategy: Algorithm1"), "{out}");
        assert!(out.contains("-- 2 answer(s)"), "{out}");
        assert!(out.contains("-- truncated by max-answers"), "{out}");
        assert!(out.contains("-- 3 row(s) pulled, 3 decoded"), "{out}");
        let out = dispatch(&args(&["run", &q, &i, "--stats"])).unwrap();
        assert!(out.contains("-- 3000 row(s) pulled, 3000 decoded"), "{out}");
    }

    #[test]
    fn serve_bench_reports_a_balanced_ledger() {
        let q = write_temp("serve_q", "Q(x, y) <- R(x, y)");
        let i = write_temp("serve_i", "R(1, 2). R(3, 4). R(5, 6).");
        let out = dispatch(&args(&[
            "serve-bench",
            &q,
            &i,
            "--workers",
            "2",
            "--requests",
            "6",
            "--queue",
            "8",
        ]))
        .unwrap();
        assert!(out.contains("2 worker(s), queue 8, 6 request(s)"), "{out}");
        assert!(out.contains("served 6"), "{out}");
        assert!(out.contains("ledger: 6 of 6 submitted accounted"), "{out}");
        assert!(out.contains("18 answers"), "{out}");
        assert!(out.contains("oracle: 6 of 6 drain(s)"), "{out}");
    }

    #[test]
    fn serve_bench_chaos_mix_still_balances() {
        let q = write_temp("serve_chaos_q", "Q(x, y) <- R(x, y)");
        let i = write_temp("serve_chaos_i", "R(1, 2). R(3, 4).");
        let out = dispatch(&args(&[
            "serve-bench",
            &q,
            &i,
            "--workers",
            "2",
            "--requests",
            "10",
            "--chaos",
        ]))
        .unwrap();
        assert!(out.contains("chaos mix"), "{out}");
        assert!(out.contains("of 10 submitted accounted"), "{out}");
    }

    #[test]
    fn serve_bench_rejects_degenerate_flags() {
        let q = write_temp("serve_bad_q", "Q(x) <- R(x)");
        let i = write_temp("serve_bad_i", "R(1).");
        let err = dispatch(&args(&["serve-bench", &q, &i, "--workers", "0"])).unwrap_err();
        assert!(err.message.contains("must be positive"), "{}", err.message);
        let err = dispatch(&args(&["serve-bench", &q, &i, "--queue", "0"])).unwrap_err();
        assert!(err.message.contains("--queue"), "{}", err.message);
        let err = dispatch(&args(&["serve-bench", &q, &i, "--requests", "soon"])).unwrap_err();
        assert!(err.message.contains("bad --requests"), "{}", err.message);
    }

    #[test]
    fn catalog_prints_table() {
        let out = dispatch(&args(&["catalog"])).unwrap();
        assert!(out.contains("example13"));
        assert!(out.contains("Example 22"));
    }

    #[test]
    fn bad_usage_is_an_error() {
        assert!(dispatch(&args(&[])).is_err());
        assert!(dispatch(&args(&["frobnicate"])).is_err());
        assert!(dispatch(&args(&["classify"])).is_err());
        assert!(dispatch(&args(&["run", "only_one_path"])).is_err());
    }

    #[test]
    fn missing_file_reports_path() {
        let err = dispatch(&args(&["classify", "/no/such/file"])).unwrap_err();
        assert!(err.message.contains("/no/such/file"));
    }

    #[test]
    fn bad_limit_rejected() {
        let q = write_temp("badlimit_q", "Q(x) <- R(x)");
        let i = write_temp("badlimit_i", "R(1).");
        let err = dispatch(&args(&["run", &q, &i, "--limit", "soon"])).unwrap_err();
        assert!(err.message.contains("bad --limit"));
    }

    #[test]
    fn lint_reports_clean_workspace() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let out = dispatch(&args(&["lint", &root])).unwrap();
        assert!(out.contains("0 finding(s)"), "{out}");
        assert!(out.contains("files scanned"), "{out}");
    }

    #[test]
    fn lint_rejects_a_non_workspace_root() {
        let err = dispatch(&args(&["lint", "/no/such/workspace"])).unwrap_err();
        assert!(
            err.message.contains("not a workspace root"),
            "{}",
            err.message
        );
    }

    #[test]
    fn help_prints_usage() {
        assert_eq!(dispatch(&args(&["--help"])).unwrap(), USAGE);
    }
}

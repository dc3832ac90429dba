//! The experiment runner: regenerates every table in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p ucq-bench --bin experiments            # full
//! cargo run --release -p ucq-bench --bin experiments -- --quick # smaller sizes
//! ```
//!
//! Output is Markdown; see DESIGN.md §3 for the experiment index.

use std::collections::HashSet;
use std::time::Instant;
use ucq_bench::{engine_for, fmt_dur, fmt_ns, instance_for, run_naive, run_pipeline};
use ucq_core::{classify, Verdict};
use ucq_enumerate::{Cheater, Enumerator, IdDecoder, IdVecEnumerator};
use ucq_query::parse_cq;
use ucq_reductions::{
    bmm_via_cq, bmm_via_example20, has_4clique_via_example22, has_4clique_via_example31,
    has_4clique_via_example39, has_triangle_via_example18, BoolMat, Graph,
};
use ucq_storage::{CtxView, Tuple, Value, ValueId};
use ucq_workloads::{catalog, random_instance, InstanceSpec};
use ucq_yannakakis::{evaluate_cq_naive, CdyEngine};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 1 } else { 4 };

    println!(
        "# Experiment run ({} mode)\n",
        if quick { "quick" } else { "full" }
    );
    e1_e2_e3(scale);
    e10_guarding(scale);
    e4_matmul(scale);
    e5_triangle(scale);
    e6_fourclique(quick);
    e7_cheater(scale);
    e8_classifier();
    e9_cdy_vs_naive(scale);
    e11_alg1_vs_pipeline(scale);
}

/// E1/E2/E3: the DelayClin pipelines vs the naive union, growing |I|.
fn e1_e2_e3(scale: usize) {
    for (exp, id, base_rows) in [
        (
            "E1 (Theorem 4 / Algorithm 1)",
            "two_free_connex",
            8_000usize,
        ),
        ("E2 (Theorem 12 / Example 2)", "example2", 8_000),
        ("E3 (Example 13, only hard members)", "example13", 1_000),
    ] {
        println!("## {exp} — `{id}`\n");
        println!("| |I| | answers | prep | median delay | p99 delay | max delay | naive total | speedup |");
        println!("|---:|---:|---:|---:|---:|---:|---:|---:|");
        let engine = engine_for(id);
        for step in 0..4 {
            let rows = base_rows * scale * (1 << step) / 8;
            let inst = instance_for(id, rows, 7 + step as u64);
            let (answers, prof) = run_pipeline(&engine, &inst);
            let (naive, naive_t) = run_naive(&engine, &inst);
            assert_eq!(answers.len(), naive.len(), "{id} strategy disagreement");
            let pipe_total = prof.preprocessing + prof.total;
            let speedup = naive_t.as_secs_f64() / pipe_total.as_secs_f64();
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {:.2}x |",
                inst.total_tuples(),
                answers.len(),
                fmt_dur(prof.preprocessing),
                fmt_ns(prof.median_ns()),
                fmt_ns(prof.p99_ns()),
                fmt_ns(prof.max_ns()),
                fmt_dur(naive_t),
                speedup,
            );
        }
        println!();
    }
}

/// E10: the guarding contrast — same body, heads flip tractability
/// (Example 20 vs Example 21).
fn e10_guarding(scale: usize) {
    println!("## E10 (guarding flips tractability: Example 20 vs Example 21)\n");
    println!("| |I| | Ex21 answers | Ex21 prep | Ex21 median delay | Ex21 total | Ex20 answers | Ex20 naive total |");
    println!("|---:|---:|---:|---:|---:|---:|---:|");
    let eng21 = engine_for("example21");
    let eng20 = engine_for("example20");
    for step in 0..3 {
        let rows = 1_000 * scale * (1 << step);
        let inst21 = instance_for("example21", rows, 11);
        let (a21, prof) = run_pipeline(&eng21, &inst21);
        let inst20 = instance_for("example20", rows, 11);
        let (a20, t20) = run_naive(&eng20, &inst20);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            inst21.total_tuples(),
            a21.len(),
            fmt_dur(prof.preprocessing),
            fmt_ns(prof.median_ns()),
            fmt_dur(prof.preprocessing + prof.total),
            a20.len(),
            fmt_dur(t20),
        );
    }
    println!();
}

/// E4: Boolean matrix multiplication through queries (Lemma 25 forward).
fn e4_matmul(scale: usize) {
    println!("## E4 (mat-mul through queries: Theorem 3(2) and Example 20)\n");
    println!("| n | ones(AB) | direct bitset | via Π CQ | via Example 20 UCQ | all equal |");
    println!("|---:|---:|---:|---:|---:|---:|");
    for step in 0..3 {
        let n = 32 * scale.min(2) * (1 << step);
        let a = BoolMat::random(n, 0.08, n as u64);
        let b = BoolMat::random(n, 0.08, n as u64 + 1);
        let t0 = Instant::now();
        let direct = a.multiply(&b);
        let t_direct = t0.elapsed();
        let t0 = Instant::now();
        let via_pi = bmm_via_cq(&a, &b);
        let t_pi = t0.elapsed();
        let t0 = Instant::now();
        let via20 = bmm_via_example20(&a, &b);
        let t_20 = t0.elapsed();
        let equal = direct == via_pi && direct == via20;
        assert!(equal);
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            n,
            direct.count_ones(),
            fmt_dur(t_direct),
            fmt_dur(t_pi),
            fmt_dur(t_20),
            equal,
        );
    }
    println!();
}

/// E5: triangle detection through Example 18.
fn e5_triangle(scale: usize) {
    println!("## E5 (triangle detection through Example 18)\n");
    println!("| n | edges | direct | via UCQ | agree | t_direct | t_ucq |");
    println!("|---:|---:|---:|---:|---:|---:|---:|");
    for step in 0..3 {
        let n = 48 * scale.min(2) * (1 << step);
        // Around the triangle threshold: small sizes stay triangle-free,
        // larger ones cross it, so both outcomes appear in the table.
        let p = 4.0 / n as f64;
        let g = Graph::gnp(n, p, 13 + step as u64);
        let t0 = Instant::now();
        let direct = g.has_triangle();
        let td = t0.elapsed();
        let t0 = Instant::now();
        let via = has_triangle_via_example18(&g);
        let tu = t0.elapsed();
        assert_eq!(direct, via);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            n,
            g.n_edges(),
            direct,
            via,
            direct == via,
            fmt_dur(td),
            fmt_dur(tu),
        );
    }
    println!();
}

/// E6: 4-clique detection through Examples 22, 31 (k=4) and 39.
fn e6_fourclique(quick: bool) {
    println!("## E6 (4-clique detection through Examples 22 / 31 / 39)\n");
    println!("| n | p | direct | ex22 | ex31 | ex39 | t_direct | t_ex22 | t_ex31 | t_ex39 |");
    println!("|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    let sizes: &[usize] = if quick { &[16, 24] } else { &[16, 24, 32, 40] };
    for (i, &n) in sizes.iter().enumerate() {
        let p = 0.3;
        let g = Graph::gnp(n, p, 17 + i as u64);
        let t0 = Instant::now();
        let direct = g.has_4clique();
        let td = t0.elapsed();
        let t0 = Instant::now();
        let r22 = has_4clique_via_example22(&g);
        let t22 = t0.elapsed();
        let t0 = Instant::now();
        let r31 = has_4clique_via_example31(&g);
        let t31 = t0.elapsed();
        let t0 = Instant::now();
        let r39 = has_4clique_via_example39(&g);
        let t39 = t0.elapsed();
        assert!(direct == r22 && direct == r31 && direct == r39);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            n,
            p,
            direct,
            r22,
            r31,
            r39,
            fmt_dur(td),
            fmt_dur(t22),
            fmt_dur(t31),
            fmt_dur(t39),
        );
    }
    println!();
}

/// E7: the Cheater compiler's overhead on duplicated id streams. Both
/// sides run the block-pumping id spine and decode every emitted answer
/// to a value tuple, so the delta is exactly the dedup + pacing machinery.
fn e7_cheater(scale: usize) {
    println!("## E7 (Cheater's Lemma overhead, Lemma 5)\n");
    println!("| stream len | dup factor | unique | raw drain | cheater drain | overhead |");
    println!("|---:|---:|---:|---:|---:|---:|");
    for dup in [1usize, 2, 4] {
        let unique = 250_000 * scale / 4;
        let ctx = CtxView::new();
        let ids: Vec<ValueId> = (0..unique)
            .flat_map(|i| {
                let row = [
                    ctx.intern(Value::Int(i as i64)),
                    ctx.intern(Value::Int((i * 7) as i64)),
                ];
                std::iter::repeat_n(row, dup)
            })
            .flatten()
            .collect();
        let t0 = Instant::now();
        let mut raw = IdDecoder::new(IdVecEnumerator::from_flat(2, ids.clone()), ctx.clone());
        let raw_n = raw.collect_all().len();
        let t_raw = t0.elapsed();
        assert_eq!(raw.rows_decoded(), raw_n, "decode once per pulled row");
        let t0 = Instant::now();
        let mut ch = Cheater::new(
            IdVecEnumerator::from_flat(2, ids.clone()),
            dup.max(1),
            ctx.clone(),
        );
        let ch_out = ch.collect_all();
        let t_ch = t0.elapsed();
        assert_eq!(ch_out.len(), unique);
        assert_eq!(raw_n, unique * dup);
        let s = ch.stats();
        assert_eq!(
            s.decoded, s.emitted,
            "the Cheater's own value facade decodes only at emission"
        );
        println!(
            "| {} | {} | {} | {} | {} | {:.2}x |",
            unique * dup,
            dup,
            unique,
            fmt_dur(t_raw),
            fmt_dur(t_ch),
            t_ch.as_secs_f64() / t_raw.as_secs_f64(),
        );
    }
    println!();
}

/// E8: classifier cost and verdicts over the catalog.
fn e8_classifier() {
    println!("## E8 (classifier over the paper catalog)\n");
    println!("| entry | verdict | time |");
    println!("|---|---|---:|");
    for entry in catalog() {
        let t0 = Instant::now();
        let c = classify(&entry.ucq);
        let t = t0.elapsed();
        let v = match c.verdict {
            Verdict::FreeConnex { .. } => "FreeConnex",
            Verdict::Intractable { .. } => "Intractable",
            Verdict::Unknown { .. } => "Unknown",
        };
        println!("| {} | {} | {} |", entry.id, v, fmt_dur(t));
    }
    println!();
}

/// E9: CDY vs naive on a single free-connex CQ (Theorem 3(1)).
fn e9_cdy_vs_naive(scale: usize) {
    println!("## E9 (CDY vs naive join on a free-connex CQ)\n");
    println!("| |I| | answers | CDY prep | CDY median delay | CDY total | naive total | speedup |");
    println!("|---:|---:|---:|---:|---:|---:|---:|");
    let q = parse_cq("Q(x, a, b, y) <- R(x, a), S(a, b), T(b, y)").expect("path CQ");
    let u = ucq_query::Ucq::single(q.clone());
    for step in 0..4 {
        let rows = 4_000 * scale * (1 << step) / 4;
        let inst = random_instance(&u, &InstanceSpec::scaled(rows, 23));
        let t0 = Instant::now();
        let eng = CdyEngine::for_query(&q, &inst).expect("free-connex");
        let prep = t0.elapsed();
        let t0 = Instant::now();
        let mut it = eng.iter();
        let mut delays: Vec<u64> = Vec::new();
        let mut last = Instant::now();
        let mut count = 0usize;
        while let Some(_t) = it.next() {
            let now = Instant::now();
            delays.push(now.duration_since(last).as_nanos() as u64);
            last = now;
            count += 1;
        }
        let cdy_total = prep + t0.elapsed();
        let t0 = Instant::now();
        let naive = evaluate_cq_naive(&q, &inst).expect("naive");
        let naive_t = t0.elapsed();
        assert_eq!(count, naive.len());
        delays.sort_unstable();
        let median = delays.get(delays.len() / 2).copied().unwrap_or(0);
        println!(
            "| {} | {} | {} | {} | {} | {} | {:.2}x |",
            inst.total_tuples(),
            count,
            fmt_dur(prep),
            fmt_ns(median),
            fmt_dur(cdy_total),
            fmt_dur(naive_t),
            naive_t.as_secs_f64() / cdy_total.as_secs_f64(),
        );
    }
    println!();

    // Verify the deduplicated comparison: answer sets identical.
    let inst = random_instance(&u, &InstanceSpec::scaled(2_000, 5));
    let eng = CdyEngine::for_query(&q, &inst).expect("free-connex");
    let a: HashSet<Tuple> = eng.iter().collect_all().into_iter().collect();
    let b: HashSet<Tuple> = evaluate_cq_naive(&q, &inst)
        .expect("naive")
        .into_iter()
        .collect();
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------
// The two extension experiments appended after the first release of the
// harness: strategy ablation and the Remark 2 FD pipeline.
// ---------------------------------------------------------------------

/// E11: Algorithm 1 vs the Cheater-based pipeline on the same all-free-
/// connex union (both are valid DelayClin strategies; Algorithm 1 needs no
/// dedup table).
fn e11_alg1_vs_pipeline(scale: usize) {
    use ucq_core::{plan_free_connex, Algorithm1, SearchConfig, UcqPipeline};
    use ucq_enumerate::measure;
    use ucq_workloads::by_id;

    println!("## E11 (ablation: Algorithm 1 vs Cheater pipeline, same union)\n");
    println!("| |I| | answers | alg1 prep | alg1 median | alg1 total | pipe prep | pipe median | pipe total |");
    println!("|---:|---:|---:|---:|---:|---:|---:|---:|");
    let entry = by_id("two_free_connex").expect("entry");
    let plan = plan_free_connex(&entry.ucq, &SearchConfig::default()).expect("plan");
    for step in 0..3 {
        let rows = 8_000 * scale * (1 << step) / 4;
        let inst = instance_for("two_free_connex", rows, 7);
        let (a1, p1) = measure(|| Algorithm1::build(&entry.ucq, &inst).expect("alg1"));
        let (a2, p2) = measure(|| UcqPipeline::build(&entry.ucq, &plan, &inst).expect("pipeline"));
        assert_eq!(
            a1.iter().collect::<HashSet<_>>(),
            a2.iter().collect::<HashSet<_>>()
        );
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            inst.total_tuples(),
            a1.len(),
            fmt_dur(p1.preprocessing),
            fmt_ns(p1.median_ns()),
            fmt_dur(p1.preprocessing + p1.total),
            fmt_dur(p2.preprocessing),
            fmt_ns(p2.median_ns()),
            fmt_dur(p2.preprocessing + p2.total),
        );
    }
    println!();
}

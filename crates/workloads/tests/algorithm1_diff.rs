//! Differential test of the Theorem 4 arm: the id-level, block-pumped
//! Algorithm 1 against a value-level reference that is the paper's five
//! lines and nothing else (member cursors and a membership probe, one
//! private context per member — no shared ids, no blocks, no decoder), and against
//! the naive evaluator, on random free-connex unions: 2–4 members, repeated
//! head variables, an emptied member, Boolean unions; one-shot, session,
//! frozen, refrozen after an insert and after a delete (into a relation the
//! seed picks among every member's atoms). Same set, no duplicate, same
//! `decide`.
//!
//! The second test runs the Theorem 12 arm through the same rungs and on
//! through `ucq_serve::serve`: random union-extension unions, whose
//! extended members run Algorithm 1 once Lemma 8 has materialized their
//! virtual relations, against the naive set.
//!
//! The last two add unions under functional dependencies — an FD rewrite
//! on the ordinary engine, whose members probe through their lifts —
//! served through the pool, before and after a rotation: two fixed cases,
//! then random unions under key FDs.

use std::collections::HashSet;
use std::sync::Arc;
use ucq_core::{
    evaluate_ucq_naive_set, fd_rewrite, Algorithm1, Fd, FdSet, FrozenSession, Strategy, UcqEngine,
};
use ucq_enumerate::{Enumerator, VecEnumerator};
use ucq_query::{parse_ucq, Ucq};
use ucq_serve::{serve, Request, ServeConfig};
use ucq_storage::{CtxView, Instance, Relation, Tuple, Value, ValueId};
use ucq_workloads::random::{
    random_fd_instance, random_fd_union, random_free_connex_union, random_instance,
    random_union_extension, InstanceSpec,
};
use ucq_workloads::residue_pairs;
use ucq_yannakakis::{CdyEngine, CdyIter, ContainsScratch};

/// Line 4's `a ∈ Q2(I)`, asked of one member in its own context: the
/// answer's values looked up in that member's dictionary (a value it never
/// interned is in none of its relations), then probed.
fn contains(e: &CdyEngine, a: &Tuple) -> bool {
    let ids: Option<Vec<ValueId>> = a.values().iter().map(|&v| e.context().lookup(v)).collect();
    ids.is_some_and(|ids| e.contains_ids(&ids, &mut ContainsScratch::default()))
}

/// Algorithm 1 as printed, nesting unions of more than two members by
/// treating the tail as one query: `cursors[0]` is `Q1`, the rest `Q2`.
fn reference_next(cursors: &mut [CdyIter<'_>], engines: &[CdyEngine]) -> Option<Tuple> {
    let (first, rest) = cursors.split_first_mut()?;
    if rest.is_empty() {
        return first.next();
    }
    let rest_engines = &engines[1..];
    if let Some(a) = first.next() {
        if !rest_engines.iter().any(|e| contains(e, &a)) {
            return Some(a);
        }
        let b = reference_next(rest, rest_engines);
        assert!(b.is_some(), "line 5 always succeeds");
        return b;
    }
    reference_next(rest, rest_engines)
}

fn reference(u: &Ucq, inst: &Instance) -> Vec<Tuple> {
    let engines: Vec<CdyEngine> = u
        .cqs()
        .iter()
        .map(|cq| CdyEngine::for_query(cq, inst).expect("members are free-connex"))
        .collect();
    let mut cursors: Vec<CdyIter<'_>> = engines.iter().map(CdyEngine::iter).collect();
    std::iter::from_fn(|| reference_next(&mut cursors, &engines)).collect()
}

/// Drains `answers`, checking the stream against `want`: same set, and no
/// answer twice.
fn check(what: &str, case: &str, mut answers: impl Enumerator, want: &HashSet<Tuple>) {
    let got = answers.collect_all();
    let set: HashSet<Tuple> = got.iter().cloned().collect();
    assert_eq!(got.len(), set.len(), "{what} repeats an answer: {case}");
    assert_eq!(&set, want, "{what}: {case}");
}

/// Every way of evaluating `u` over `inst` that a caller has, against the
/// reference and the naive set.
fn check_all_paths(u: &Ucq, inst: &Instance, case: &str) -> HashSet<Tuple> {
    let want = evaluate_ucq_naive_set(u, inst).expect("evaluates");
    let by_reference = reference(u, inst);
    let reference_set: HashSet<Tuple> = by_reference.iter().cloned().collect();
    assert_eq!(by_reference.len(), reference_set.len(), "reference: {case}");
    assert_eq!(reference_set, want, "reference vs naive: {case}");

    check(
        "one-shot Algorithm1",
        case,
        Algorithm1::from_engines(Algorithm1::member_engines(u, inst, &CtxView::new()).unwrap()),
        &want,
    );
    check_engine_paths(u, inst, case, want)
}

/// The engine's one-shot and session rungs against `want`.
fn check_engine_paths(
    u: &Ucq,
    inst: &Instance,
    case: &str,
    want: HashSet<Tuple>,
) -> HashSet<Tuple> {
    let engine = UcqEngine::new(u.clone());
    check("engine", case, engine.enumerate(inst).unwrap(), &want);
    assert_eq!(engine.decide(inst).unwrap(), !want.is_empty(), "{case}");
    let session = engine.session(inst);
    for _ in 0..2 {
        check("session", case, session.enumerate().unwrap(), &want);
    }
    assert_eq!(session.decide().unwrap(), !want.is_empty(), "{case}");
    want
}

/// A relation the union reads, and two rows to churn it by: the member and
/// its atom picked by `seed`, so that across the cases a refreeze reaches
/// every member, or only a later one, or only a provider's relation — and
/// each epoch keeps the rest.
fn churn_target(u: &Ucq, inst: &Instance, seed: u64) -> (String, Relation, Relation) {
    let pick = seed as usize;
    let member = &u.cqs()[pick % u.len()];
    let atom = &member.atoms()[pick / u.len() % member.atoms().len()];
    let stored = inst.get(&atom.rel).expect("generated");
    let arity = stored.arity();
    let mut fresh = Relation::new(arity);
    for k in 0..2 {
        let row: Vec<_> = (0..arity)
            .map(|c| Value::Int(((seed + k + c as u64) % 5) as i64))
            .collect();
        fresh.push_row(&row);
    }
    let mut doomed = Relation::new(arity);
    for row in stored.iter_rows().take(2) {
        doomed.push_row(row);
    }
    (atom.rel.clone(), fresh, doomed)
}

/// Frozen, then refrozen after an insert and after a delete; every epoch
/// against `evaluate`'s answers over its own instance, and the first again
/// once the others exist. Returns the frozen and the last epoch with the
/// last one's answers.
fn check_epochs<'e>(
    engine: &'e UcqEngine,
    inst: &Instance,
    seed: u64,
    case: &str,
    want: &HashSet<Tuple>,
    evaluate: impl Fn(&Ucq, &Instance, &str) -> HashSet<Tuple>,
) -> (FrozenSession<'e>, FrozenSession<'e>, HashSet<Tuple>) {
    let u = engine.ucq();
    let frozen = engine.session(inst).freeze().unwrap();
    check("frozen", case, frozen.enumerate().unwrap(), want);
    assert_eq!(frozen.decide().unwrap(), !want.is_empty(), "{case}");

    let (rel, fresh, doomed) = churn_target(u, inst, seed);
    let ctx = frozen.build_context();
    let grown = ctx.insert_rows(&inst.get_shared(&rel).unwrap(), &fresh);
    let inst_grown = inst.with_relation_shared(&rel, grown);
    let after_insert = frozen.refreeze(&inst_grown).unwrap();
    let want_grown = evaluate(u, &inst_grown, &format!("{case} + insert"));
    let epoch = after_insert.enumerate().unwrap();
    check("refrozen after insert", case, epoch, &want_grown);

    let shrunk = ctx.delete_rows(&inst_grown.get_shared(&rel).unwrap(), &doomed);
    let inst_shrunk = inst_grown.with_relation_shared(&rel, shrunk);
    let after_delete = after_insert.refreeze(&inst_shrunk).unwrap();
    let want_shrunk = evaluate(u, &inst_shrunk, &format!("{case} - delete"));
    let epoch = after_delete.enumerate().unwrap();
    check("refrozen after delete", case, epoch, &want_shrunk);
    assert_eq!(
        after_delete.decide().unwrap(),
        !want_shrunk.is_empty(),
        "{case}"
    );
    // Earlier epochs keep serving their own instance.
    check("frozen, later", case, frozen.enumerate().unwrap(), want);
    (frozen, after_delete, want_shrunk)
}

#[test]
fn algorithm1_on_ids_matches_the_paper_and_the_naive_set() {
    let mut on_the_arm = 0;
    let mut nonempty = 0;
    for seed in 0..120u64 {
        let members = 2 + (seed % 3) as usize;
        let head_arity = (seed / 3 % 4) as usize;
        let u = random_free_connex_union(seed, members, head_arity);
        // A small domain, so members overlap and line 5 runs.
        let mut inst = random_instance(
            &u,
            &InstanceSpec {
                rows_per_relation: 14,
                domain: 5,
                seed,
            },
        );
        if seed % 5 == 0 {
            // An empty member: whatever the last member reads first.
            let rel = &u.cqs()[members - 1].atoms()[0].rel;
            let arity = inst.get(rel).expect("generated").arity();
            inst.insert(rel, Relation::new(arity));
        }
        let case = format!("seed {seed}: {u:?}");
        let want = check_all_paths(&u, &inst, &case);
        nonempty += usize::from(!want.is_empty());

        let engine = UcqEngine::new(u.clone());
        on_the_arm += usize::from(engine.strategy() == Strategy::Algorithm1);
        check_epochs(&engine, &inst, seed, &case, &want, check_all_paths);
    }
    assert!(
        on_the_arm >= 100,
        "only {on_the_arm} unions ran Algorithm 1"
    );
    assert!(nonempty >= 100, "only {nonempty} unions had answers");
}

/// Four requests against `session` through a two-worker pool, each checked
/// like any other stream.
fn check_served(case: &str, session: FrozenSession<'_>, want: &HashSet<Tuple>) {
    let session = Arc::new(session);
    let config = ServeConfig::new(2, 8).expect("positive sizes");
    let (replies, stats) = serve(config, |handle| {
        let tickets: Vec<_> = (0..4)
            .map(|_| handle.submit(Request::new(Arc::clone(&session))))
            .collect();
        tickets
            .into_iter()
            .map(|t| t.expect("admitted").wait().expect("served"))
            .collect::<Vec<_>>()
    });
    assert!(
        stats.is_balanced() && stats.completed == 4,
        "{case}: {stats:?}"
    );
    for served in replies {
        check(
            "served",
            case,
            VecEnumerator::new(served.into_answers()),
            want,
        );
    }
}

/// The Theorem 12 arm's differential: random union-extension unions, whose
/// extended members run Algorithm 1 with membership probes, on every rung
/// from one-shot to the pool. Release builds run them at sizes where a
/// missing membership set or a repeated answer shows.
#[test]
fn union_extensions_answer_once_on_every_rung_up_to_the_pool() {
    // Release sizes: most unions answer more than one 512-row block.
    let (cases, rows, domain, min_past_a_block) = if cfg!(debug_assertions) {
        (40, 14, 5, 0)
    } else {
        (200, 160, 12, 100)
    };
    let (mut nonempty, mut past_a_block) = (0, 0);
    for seed in 0..cases {
        let u = random_union_extension(seed);
        let mut inst = random_instance(
            &u,
            &InstanceSpec {
                rows_per_relation: rows,
                domain,
                seed,
            },
        );
        if seed % 5 == 0 {
            let rel = &u.cqs()[u.len() - 1].atoms()[0].rel;
            let arity = inst.get(rel).expect("generated").arity();
            inst.insert(rel, Relation::new(arity));
        }
        let case = format!("seed {seed}: {u:?}");
        let engine = UcqEngine::new(u.clone());
        assert_eq!(engine.strategy(), Strategy::UnionExtension, "{case}");
        let naive = |u: &Ucq, inst: &Instance, case: &str| {
            let want = evaluate_ucq_naive_set(u, inst).expect("evaluates");
            check_engine_paths(u, inst, case, want)
        };
        let want = naive(&u, &inst, &case);
        nonempty += usize::from(!want.is_empty());
        past_a_block += usize::from(want.len() > 512);
        let (frozen, last, want_last) = check_epochs(&engine, &inst, seed, &case, &want, naive);
        check_served(&case, frozen, &want);
        check_served(&case, last, &want_last);
    }
    assert!(
        nonempty >= cases as usize / 2,
        "only {nonempty} unions had answers"
    );
    assert!(
        past_a_block >= min_past_a_block,
        "only {past_a_block} unions answered more than a block"
    );
}

#[test]
fn fd_rewrites_answer_once_on_every_rung_up_to_the_pool() {
    let key = |rel: &str| Fd::new(rel, vec![0], 1);
    let cases = [
        (
            "Pi(x, y) <- A(x, z), B(z, y)",
            vec![key("A")],
            Relation::from_pairs((0..240).map(|k| (k % 12, k))),
            Relation::from_pairs([(3, 9000), (11, 9001)]),
            Strategy::Algorithm1,
        ),
        // Heads that grow by different determined variables: (1, 10) and
        // (1, 20) of the rewrite are one answer (1) of the union, which
        // Algorithm 1 emits once by lifting (1) to each member's head.
        (
            "Q1(x) <- A(x, z)\nQ2(x) <- B(x, w)",
            vec![key("A"), key("B")],
            residue_pairs(900, 5),
            Relation::from_pairs([(5000, 3), (5001, 4)]),
            Strategy::Algorithm1,
        ),
    ];
    for (text, fds, b, delta, strategy) in cases {
        let u = parse_ucq(text).unwrap();
        let inst: Instance = [("A", residue_pairs(700, 12)), ("B", b)]
            .into_iter()
            .collect();
        let rewrite = fd_rewrite(&u, &FdSet::new(fds)).unwrap();
        let engine = rewrite.engine();
        assert_eq!(engine.strategy(), strategy, "{text}");
        let widened = rewrite.instance(&inst).unwrap();
        let want = evaluate_ucq_naive_set(&u, &inst).unwrap();
        assert!(want.len() > 512, "{text}: more than a block of answers");

        check("one-shot", text, engine.enumerate(&widened).unwrap(), &want);
        let session = engine.session(&widened);
        for _ in 0..2 {
            check("session", text, session.enumerate().unwrap(), &want);
        }
        let frozen = session.freeze().unwrap();
        check("frozen", text, frozen.enumerate().unwrap(), &want);

        let grown = frozen
            .build_context()
            .insert_rows(&inst.get_shared("B").unwrap(), &delta);
        let inst_grown = inst.with_relation_shared("B", grown);
        let next = frozen
            .refreeze(&rewrite.instance(&inst_grown).unwrap())
            .unwrap();
        let want_grown = evaluate_ucq_naive_set(&u, &inst_grown).unwrap();
        assert!(want_grown.len() > want.len(), "{text}: the delta shows");
        check("refrozen", text, next.enumerate().unwrap(), &want_grown);

        check_served(text, frozen, &want);
        check_served(text, next, &want_grown);
    }
}

/// Random unions under key FDs whose rewrites answer on a projected head,
/// on every rung from one-shot to the pool, against the naive answers of
/// the *original* union over the original instance. Counts the unions in
/// which some answer comes from two members, where a lifted probe has to
/// fire for it to come out once.
#[test]
fn random_fd_rewrites_answer_once_on_every_rung_up_to_the_pool() {
    let (cases, rows, domain) = if cfg!(debug_assertions) {
        (12, 16, 5)
    } else {
        (120, 120, 10)
    };
    let (mut nonempty, mut shared_answers) = (0, 0);
    let mut arms = std::collections::HashMap::new();
    for seed in 0..cases {
        let (u, fds) = random_fd_union(seed);
        let spec = InstanceSpec {
            rows_per_relation: rows,
            domain,
            seed,
        };
        let inst = random_fd_instance(&u, &fds, &spec);
        let case = format!("seed {seed}: {u:?} under {:?}", fds.fds());
        let rewrite = fd_rewrite(&u, &fds).unwrap();
        let engine = rewrite.engine();
        *arms.entry(format!("{:?}", engine.strategy())).or_insert(0) += 1;
        let widened = rewrite.instance(&inst).unwrap();
        let want = evaluate_ucq_naive_set(&u, &inst).unwrap();
        nonempty += usize::from(!want.is_empty());
        let per_member: usize = u
            .cqs()
            .iter()
            .map(|cq| {
                let alone = Ucq::new(vec![cq.clone()]).unwrap();
                evaluate_ucq_naive_set(&alone, &inst).unwrap().len()
            })
            .sum();
        shared_answers += usize::from(per_member > want.len());

        check(
            "one-shot",
            &case,
            engine.enumerate(&widened).unwrap(),
            &want,
        );
        assert_eq!(engine.decide(&widened).unwrap(), !want.is_empty(), "{case}");
        let session = engine.session(&widened);
        for _ in 0..2 {
            check("session", &case, session.enumerate().unwrap(), &want);
        }
        let frozen = session.freeze().unwrap();
        check("frozen", &case, frozen.enumerate().unwrap(), &want);

        // Fresh keys keep every FD satisfied.
        let rel = u.cqs()[0].atoms()[0].rel.clone();
        let fresh = Relation::from_pairs([(1000, seed as i64 % domain), (1001, 0)]);
        let grown = frozen
            .build_context()
            .insert_rows(&inst.get_shared(&rel).unwrap(), &fresh);
        let inst_grown = inst.with_relation_shared(&rel, grown);
        let next = frozen
            .refreeze(&rewrite.instance(&inst_grown).unwrap())
            .unwrap();
        let want_grown = evaluate_ucq_naive_set(&u, &inst_grown).unwrap();
        check("refrozen", &case, next.enumerate().unwrap(), &want_grown);
        check("frozen, later", &case, frozen.enumerate().unwrap(), &want);

        check_served(&case, frozen, &want);
        check_served(&case, next, &want_grown);
    }
    println!(
        "{cases} random FD rewrites: {nonempty} with answers, {shared_answers} with an answer \
         two members share; arms {arms:?}"
    );
    assert!(
        nonempty >= cases as usize / 2,
        "only {nonempty} had answers"
    );
    assert!(
        shared_answers >= cases as usize / 4,
        "only {shared_answers} unions share an answer across members"
    );
}

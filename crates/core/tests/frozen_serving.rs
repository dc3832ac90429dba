//! Multi-thread equivalence for frozen sessions: N threads draining one
//! [`FrozenSession`] must each produce exactly the single-threaded answer
//! multiset, for every strategy arm (Algorithm 1, the Theorem 12 union
//! pipeline, and the pre-materialized naive fallback) — and for unions
//! under functional dependencies, which climb the same ladder as a rewrite.

use std::collections::HashMap;
use ucq_core::{evaluate_ucq_naive_set, fd_rewrite, Fd, FdSet, FrozenSession, Strategy, UcqEngine};
use ucq_enumerate::Enumerator;
use ucq_query::parse_ucq;
use ucq_storage::{Instance, Relation, Tuple};

/// Answers as a multiset: duplicate emissions must survive the comparison.
fn multiset(answers: Vec<Tuple>) -> HashMap<Tuple, usize> {
    let mut m = HashMap::new();
    for t in answers {
        *m.entry(t).or_insert(0usize) += 1;
    }
    m
}

/// A deterministic pseudo-random binary relation (splitmix-style hash of
/// the row index — no RNG dependency in this crate's tests).
fn scrambled_pairs(rows: usize, domain: i64, salt: u64) -> Relation {
    Relation::from_pairs((0..rows as u64).map(|i| {
        let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (
            (x as i64).rem_euclid(domain),
            ((x >> 17) as i64).rem_euclid(domain),
        )
    }))
}

/// Freezes the engine's session over `inst` and checks that `threads`
/// concurrent drains each reproduce the single-threaded multiset.
fn assert_threads_match(engine: &UcqEngine, inst: &Instance, threads: usize) {
    let frozen = engine
        .session(inst)
        .freeze()
        .unwrap_or_else(|e| panic!("freeze ({:?}): {e}", engine.strategy()));
    assert_drains_match(&frozen, threads);
}

/// Checks that `threads` concurrent drains of `frozen` each reproduce the
/// single-threaded multiset, which is returned.
fn assert_drains_match(frozen: &FrozenSession<'_>, threads: usize) -> HashMap<Tuple, usize> {
    let engine = frozen.engine();
    let want = multiset(frozen.enumerate().expect("reference drain").collect_all());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| multiset(frozen.enumerate().expect("drain").collect_all())))
            .collect();
        for h in handles {
            assert_eq!(
                h.join().expect("no panic"),
                want,
                "thread multiset diverged ({:?})",
                engine.strategy()
            );
        }
    });
    assert_eq!(frozen.decide().expect("decide"), !want.is_empty());
    want
}

#[test]
fn four_threads_match_single_threaded_multiset_across_strategies() {
    let cases = [
        // Full-head path: all members free-connex, no extension needed.
        (
            "Q(x, z, y) <- A(x, z), B(z, y)",
            Strategy::Algorithm1,
            vec![("A", 400usize, 40i64, 1u64), ("B", 400, 40, 2)],
        ),
        // Example 2: a hard CQ made tractable by a providing member.
        (
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
            Strategy::UnionExtension,
            vec![("R1", 200, 12, 3), ("R2", 200, 12, 4), ("R3", 200, 12, 5)],
        ),
        // Cyclic triangle: intractable, served by the pre-materialized
        // naive table.
        (
            "Q(x, y, z) <- R(x, y), S(y, z), T(z, x)",
            Strategy::Naive,
            vec![("R", 300, 10, 6), ("S", 300, 10, 7), ("T", 300, 10, 8)],
        ),
    ];
    for (text, strategy, rels) in cases {
        let engine = UcqEngine::new(parse_ucq(text).expect("well-formed"));
        assert_eq!(engine.strategy(), strategy, "case coverage drifted: {text}");
        let inst: Instance = rels
            .into_iter()
            .map(|(name, rows, domain, salt)| (name, scrambled_pairs(rows, domain, salt)))
            .collect();
        assert_threads_match(&engine, &inst, 4);
    }
}

#[test]
fn eight_threads_on_a_shared_union_session() {
    let engine = UcqEngine::new(
        parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .expect("well-formed"),
    );
    let inst: Instance = [
        ("R1", scrambled_pairs(500, 16, 21)),
        ("R2", scrambled_pairs(500, 16, 22)),
        ("R3", scrambled_pairs(500, 16, 23)),
    ]
    .into_iter()
    .collect();
    assert_threads_match(&engine, &inst, 8);
}

#[test]
fn frozen_session_agrees_with_unfrozen_session() {
    let engine = UcqEngine::new(parse_ucq("Q(x, z, y) <- A(x, z), B(z, y)").expect("well-formed"));
    let inst: Instance = [
        ("A", scrambled_pairs(250, 20, 31)),
        ("B", scrambled_pairs(250, 20, 32)),
    ]
    .into_iter()
    .collect();
    let session = engine.session(&inst);
    let before = multiset(
        session
            .enumerate()
            .expect("build-phase drain")
            .collect_all(),
    );
    let frozen = session.freeze().expect("freeze");
    let after = multiset(frozen.enumerate().expect("frozen drain").collect_all());
    assert_eq!(before, after, "freezing must not change the answer stream");
}

#[test]
fn fd_rewrites_serve_from_eight_threads_and_refreeze_over_a_rewritten_delta() {
    let key = |rel: &str| Fd::new(rel, vec![0], 1);
    let keyed = |rows: i64, modulus: i64| Relation::from_pairs((0..rows).map(|k| (k, k % modulus)));
    // (union, FDs, instance, the relation a delta goes into, the delta)
    let cases = [
        // Matmul with a key: hard without the FD, one free-connex member
        // with it; the head grows by z.
        (
            "Pi(x, y) <- A(x, z), B(z, y)",
            vec![key("A")],
            vec![("A", keyed(700, 40)), ("B", scrambled_pairs(300, 40, 41))],
            ("B", Relation::from_pairs([(7, 1000), (39, 1001)])),
        ),
        // Two members whose heads grow by different determined variables:
        // equal answers reach the union from both.
        (
            "Q1(x) <- A(x, z)\nQ2(x) <- B(x, w)",
            vec![key("A"), key("B")],
            vec![("A", keyed(900, 7)), ("B", keyed(1200, 5))],
            ("B", Relation::from_pairs([(5000, 1), (5001, 2)])),
        ),
        // Atom saturation: S and T are widened by R's determined column,
        // under member-scoped names; the delta goes into S itself.
        (
            "Q1(x, w) <- R(x, y), S(x, w)\nQ2(x, w) <- R(x, y), T(x, w)",
            vec![key("R")],
            vec![
                ("R", keyed(500, 9)),
                ("S", scrambled_pairs(400, 600, 51)),
                ("T", scrambled_pairs(400, 600, 52)),
            ],
            (
                "S",
                Relation::from_pairs([(3, 7000), (499, 7001), (900, 7002)]),
            ),
        ),
    ];
    for (text, fds, rels, (churned, delta)) in cases {
        let union = parse_ucq(text).expect("well-formed");
        let rewrite = fd_rewrite(&union, &FdSet::new(fds)).expect("extends");
        let engine = rewrite.engine();
        assert_ne!(engine.strategy(), Strategy::Naive, "{text} stays tractable");
        let oracle = |inst: &Instance| -> HashMap<Tuple, usize> {
            let set = evaluate_ucq_naive_set(&union, inst).expect("evaluates");
            assert!(!set.is_empty(), "{text}");
            multiset(set.into_iter().collect())
        };
        let inst: Instance = rels.into_iter().collect();
        let frozen = engine
            .session(&rewrite.instance(&inst).expect("FDs hold"))
            .freeze()
            .expect("freezes");
        assert_eq!(assert_drains_match(&frozen, 8), oracle(&inst), "{text}");

        // A delta into a base relation, the instance rewritten again, and
        // the next epoch built from the one serving.
        let base = inst.get_shared(churned).expect("present");
        let grown = frozen.build_context().insert_rows(&base, &delta);
        let inst = inst.with_relation_shared(churned, grown);
        let next = frozen
            .refreeze(&rewrite.instance(&inst).expect("FDs still hold"))
            .expect("refreezes");
        let refrozen = assert_drains_match(&next, 8);
        assert_eq!(refrozen, oracle(&inst), "{text}, refrozen");
        assert_ne!(refrozen, assert_drains_match(&frozen, 2), "the delta shows");
    }
}

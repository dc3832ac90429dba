//! Multi-thread equivalence for frozen sessions: N threads draining one
//! [`FrozenSession`] must each produce exactly the single-threaded answer
//! multiset, for every strategy arm (Algorithm 1, the Theorem 12 union
//! pipeline, and the pre-materialized naive fallback).

use std::collections::HashMap;
use ucq_core::{Strategy, UcqEngine};
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

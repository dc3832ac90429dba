//! Property tests for classification and the DelayClin pipelines.
//!
//! The strongest one checks Theorem 29 exactness on random body-isomorphic
//! pairs: the planner certifies free-connexity **iff** both members are
//! free-path guarded and bypass guarded — i.e. Lemma 28's construction is
//! always found by the bounded search, and the guards are decided
//! correctly.

use proptest::prelude::*;
use std::collections::HashSet;
use ucq_core::{
    classify, evaluate_ucq_naive_set, CostedSearch, SearchConfig, Strategy as EvalStrategy,
    UcqEngine, Verdict,
};
use ucq_query::{Cq, Ucq};
use ucq_storage::{Instance, Relation, Tuple, Value};

const VARS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// A random self-join-free CQ over ≤ 6 variables with 1–4 atoms.
fn arb_cq(name: &'static str) -> impl Strategy<Value = Cq> {
    let atom = proptest::collection::vec(0..6u32, 1..=3);
    (
        proptest::collection::vec(atom, 1..=4),
        proptest::collection::vec(proptest::bool::ANY, 6),
    )
        .prop_filter_map("valid", move |(atoms, head_bits)| {
            let used: HashSet<u32> = atoms.iter().flatten().copied().collect();
            let head: Vec<&str> = (0..6u32)
                .filter(|v| head_bits[*v as usize] && used.contains(v))
                .map(|v| VARS[v as usize])
                .collect();
            let specs: Vec<(String, Vec<&str>)> = atoms
                .iter()
                .enumerate()
                .map(|(i, args)| {
                    (
                        format!("{name}R{i}"),
                        args.iter().map(|&v| VARS[v as usize]).collect(),
                    )
                })
                .collect();
            let refs: Vec<(&str, &[&str])> = specs
                .iter()
                .map(|(n, a)| (n.as_str(), a.as_slice()))
                .collect();
            Cq::build(name, &head, &refs).ok()
        })
}

/// A random body-isomorphic pair: one random acyclic self-join-free body,
/// two random heads of equal arity.
fn arb_body_iso_pair() -> impl Strategy<Value = Ucq> {
    let atom = proptest::collection::vec(0..6u32, 2..=3);
    (
        proptest::collection::vec(atom, 2..=4),
        proptest::collection::vec(0..6u32, 1..=4),
        proptest::collection::vec(0..6u32, 1..=4),
    )
        .prop_filter_map("valid pair", |(atoms, h1, h2)| {
            let used: Vec<u32> = {
                let s: HashSet<u32> = atoms.iter().flatten().copied().collect();
                let mut v: Vec<u32> = s.into_iter().collect();
                v.sort_unstable();
                v
            };
            let arity = h1.len().min(h2.len());
            let pick = |h: &[u32]| -> Vec<&str> {
                let mut seen = HashSet::new();
                h.iter()
                    .map(|i| used[*i as usize % used.len()])
                    .filter(|v| seen.insert(*v))
                    .take(arity)
                    .map(|v| VARS[v as usize])
                    .collect()
            };
            let head1 = pick(&h1);
            let head2 = pick(&h2);
            if head1.len() != head2.len() {
                return None;
            }
            let specs: Vec<(String, Vec<&str>)> = atoms
                .iter()
                .enumerate()
                .map(|(i, args)| {
                    (
                        format!("R{i}"),
                        args.iter().map(|&v| VARS[v as usize]).collect(),
                    )
                })
                .collect();
            let refs: Vec<(&str, &[&str])> = specs
                .iter()
                .map(|(n, a)| (n.as_str(), a.as_slice()))
                .collect();
            let q1 = Cq::build("Q1", &head1, &refs).ok()?;
            let q2 = Cq::build("Q2", &head2, &refs).ok()?;
            if !q1.is_acyclic() {
                return None;
            }
            Ucq::new(vec![q1, q2]).ok()
        })
}

/// Random instance over a union's relations.
fn arb_instance(ucq: &Ucq) -> impl Strategy<Value = Instance> {
    let specs: Vec<(String, usize)> = ucq
        .cqs()
        .iter()
        .flat_map(|cq| cq.atoms().iter().map(|a| (a.rel.clone(), a.args.len())))
        .collect();
    let mut strategies = Vec::new();
    for (name, arity) in specs {
        let rows = proptest::collection::vec(proptest::collection::vec(0i64..4, arity), 0..14);
        strategies.push(rows.prop_map(move |rows| {
            let mut rel = Relation::new(arity);
            for row in &rows {
                let vals: Vec<Value> = row.iter().map(|&x| Value::Int(x)).collect();
                rel.push_row(&vals);
            }
            (name.clone(), rel)
        }));
    }
    strategies.prop_map(|pairs| pairs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 29 exactness on random body-isomorphic acyclic pairs.
    #[test]
    fn theorem29_guards_decide_exactly(u in arb_body_iso_pair()) {
        use ucq_core::{align_body_isomorphic, guards};
        let aligned = align_body_isomorphic(&u).expect("built body-isomorphic");
        let h = aligned.body.hypergraph();
        let guarded = [(0usize, 1usize), (1, 0)].iter().all(|&(x, y)| {
            guards::is_free_path_guarded(&h, aligned.frees[x], aligned.frees[y])
                && guards::is_bypass_guarded(&aligned.body, aligned.frees[x], aligned.frees[y])
        });
        let plan = CostedSearch::prepare(&u, &SearchConfig::default());
        prop_assert_eq!(
            plan.is_some(),
            guarded,
            "Theorem 29: free-connex iff guarded, for\n{}", u
        );
    }

    /// Whenever classification says free-connex, the pipeline output equals
    /// the naive union, duplicate-free, on random instances.
    #[test]
    fn tractable_verdicts_are_executable(
        (u, inst) in (arb_cq("Q1"), arb_cq("Q2"))
            .prop_filter_map("same arity", |(q1, q2)| Ucq::new(vec![q1, q2]).ok())
            .prop_flat_map(|u| {
                let inst = arb_instance(&u);
                (Just(u), inst)
            })
    ) {
        let engine = UcqEngine::new(u.clone());
        prop_assume!(engine.strategy() != EvalStrategy::Naive);
        let mut ans = engine.enumerate(&inst).expect("DelayClin strategy");
        let mut got = Vec::new();
        while let Some(t) = ucq_enumerate::Enumerator::next(&mut ans) {
            got.push(t);
        }
        let set: HashSet<Tuple> = got.iter().cloned().collect();
        prop_assert_eq!(got.len(), set.len(), "duplicates from pipeline");
        let naive = evaluate_ucq_naive_set(&engine.classification().minimized, &inst)
            .expect("naive");
        prop_assert_eq!(set, naive);
    }

    /// Minimization never changes semantics.
    #[test]
    fn minimization_preserves_semantics(
        (u, inst) in (arb_cq("Q1"), arb_cq("Q2"))
            .prop_filter_map("same arity", |(q1, q2)| Ucq::new(vec![q1, q2]).ok())
            .prop_flat_map(|u| {
                let inst = arb_instance(&u);
                (Just(u), inst)
            })
    ) {
        let c = classify(&u);
        let full = evaluate_ucq_naive_set(&u, &inst).expect("full");
        let min = evaluate_ucq_naive_set(&c.minimized, &inst).expect("minimized");
        prop_assert_eq!(full, min);
    }

    /// The classifier never crashes and always yields a verdict with
    /// consistent metadata on arbitrary two-member unions.
    #[test]
    fn classifier_total_on_random_pairs(
        u in (arb_cq("Q1"), arb_cq("Q2"))
            .prop_filter_map("same arity", |(q1, q2)| Ucq::new(vec![q1, q2]).ok())
    ) {
        let c = classify(&u);
        prop_assert_eq!(c.statuses.len(), c.minimized.len());
        prop_assert_eq!(c.kept.len(), c.minimized.len());
        if let Verdict::FreeConnex { plan } = &c.verdict {
            prop_assert_eq!(plan.chosen.len(), c.minimized.len());
        }
    }
}

//! One ladder: for a query on each strategy arm, every rung — one-shot,
//! session, frozen, refrozen with nothing touched, refrozen after an insert
//! — answers with the naive oracle's set, without a repeat; and the rungs
//! that evaluate the same instance are the same code over the same
//! preprocessed state, so they answer in the same *order* too.

use std::collections::HashSet;
use ucq_core::{
    evaluate_ucq_naive_set, plan_free_connex, Algorithm1, SearchConfig, Strategy, UcqEngine,
    UcqPipelinePrep,
};
use ucq_enumerate::Enumerator;
use ucq_query::parse_ucq;
use ucq_storage::{CtxView, Instance, Relation, Tuple, Value};

/// Drains `answers` (a repeat fails) and checks the set against `want`.
fn sequence(what: &str, mut answers: impl Enumerator, want: &HashSet<Tuple>) -> Vec<Tuple> {
    let got = answers.collect_all();
    let set: HashSet<Tuple> = got.iter().cloned().collect();
    assert_eq!(got.len(), set.len(), "{what} repeats an answer");
    assert_eq!(&set, want, "{what} differs from the naive oracle");
    got
}

fn pairs(n: i64, f: impl Fn(i64) -> (i64, i64)) -> Relation {
    Relation::from_pairs((0..n).map(f))
}

#[test]
fn every_rung_answers_like_the_oracle_and_the_first_four_in_one_order() {
    let cases = [
        (
            Strategy::Algorithm1,
            "Q1(x, y) <- R1(x, y), R2(y, z)\nQ2(x, y) <- R1(x, y), R3(y, z)",
        ),
        (
            Strategy::UnionExtension,
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\nQ2(x, y, w) <- R1(x, y), R2(y, w)",
        ),
        (Strategy::Naive, "Q(x, y) <- R1(x, z), R2(z, y), R3(y, x)"),
    ];
    for (strategy, text) in cases {
        let union = parse_ucq(text).unwrap();
        let engine = UcqEngine::new(union.clone());
        assert_eq!(engine.strategy(), strategy, "case coverage drifted: {text}");
        // More answers than one decoder block, so order is tested across
        // block boundaries.
        let inst: Instance = [
            ("R1", pairs(900, |k| (k, k % 30))),
            ("R2", pairs(60, |k| (k % 30, (k * 7) % 30))),
            ("R3", pairs(60, |k| ((k * 11) % 30, k))),
        ]
        .into_iter()
        .collect();
        let want = evaluate_ucq_naive_set(&union, &inst).unwrap();
        assert!(!want.is_empty(), "{text}");

        let one_shot = sequence("one-shot", engine.enumerate(&inst).unwrap(), &want);
        let session = engine.session(&inst);
        let in_session = sequence("session", session.enumerate().unwrap(), &want);
        assert_eq!(session.decide().unwrap(), engine.decide(&inst).unwrap());
        let frozen = session.freeze().unwrap();
        let when_frozen = sequence("frozen", frozen.enumerate().unwrap(), &want);
        let same = frozen.refreeze(&inst.clone()).unwrap();
        let untouched = sequence("refrozen untouched", same.enumerate().unwrap(), &want);
        for (rung, got) in [
            ("session", &in_session),
            ("frozen", &when_frozen),
            ("refrozen untouched", &untouched),
        ] {
            assert!(got == &one_shot, "{rung} reorders the answers of {text}");
        }

        let delta = Relation::from_pairs([(17, 1), (9001, 17)]);
        let r1 = frozen
            .build_context()
            .insert_rows(&inst.get_shared("R1").unwrap(), &delta);
        let grown = inst.with_relation_shared("R1", r1);
        let want_grown = evaluate_ucq_naive_set(&union, &grown).unwrap();
        assert!(want_grown.len() > want.len(), "the delta adds answers");
        let next = frozen.refreeze(&grown).unwrap();
        sequence(
            "refrozen after insert",
            next.enumerate().unwrap(),
            &want_grown,
        );
        assert!(next.decide().unwrap());
        // The epoch before keeps its answers, in its order.
        let still = sequence("frozen, later", frozen.enumerate().unwrap(), &want);
        assert!(still == one_shot, "the old epoch reorders {text}");
    }
}

/// An all-free-connex union has two entry points — Algorithm 1, and the
/// Theorem 12 pipeline with nothing to materialize, whose extended members
/// are then the members themselves — and they return one set (the
/// catalog's `two_free_connex`, its members overlapping). The test keeps
/// the name it had when the pipeline ran the Cheater.
#[test]
fn algorithm1_and_the_cheater_pipeline_return_one_set() {
    let union = parse_ucq("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, z), T(z, b), U(a, z, b)").unwrap();
    let mut u = Relation::new(3);
    for k in 0..70i64 {
        let (a, z) = (k % 10, k % 7);
        u.push_row(&[a, z, (a + z) % 9].map(Value::Int));
    }
    let inst: Instance = [
        ("R", pairs(30, |k| (k % 10, k % 9))),
        ("S", pairs(40, |k| (k % 10, k % 7))),
        ("T", pairs(40, |k| (k % 7, k % 9))),
        ("U", u),
    ]
    .into_iter()
    .collect();
    let want = evaluate_ucq_naive_set(&union, &inst).unwrap();
    assert!(want.len() > 30, "Q2 adds answers to Q1's");
    let plan = plan_free_connex(&union, &SearchConfig::default()).unwrap();
    assert!(!plan.needs_extension());
    let members = Algorithm1::member_engines(&union, &inst, &CtxView::new()).unwrap();
    sequence("Algorithm 1", Algorithm1::from_engines(members), &want);
    let prep = UcqPipelinePrep::prepare(&union, &plan, &inst, &CtxView::new()).unwrap();
    sequence(
        "the Theorem 12 pipeline",
        Algorithm1::from_engines(prep.engines().to_vec()),
        &want,
    );
}

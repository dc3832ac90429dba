//! Membership audit of Algorithm 1's probe, where it is least obvious.
//!
//! The Theorem 12 arm: every extended member a union-extension union
//! builds answers its own answers' membership probes, so Algorithm 1 over
//! the extended members answers the union, each answer once. Audited:
//! every catalog entry on the arm, and 200 random union-extension unions,
//! each under the classification's certificate and under the costed plan
//! the engine executes.
//!
//! FD rewrites: every free-connex member of a random projecting rewrite,
//! built with its lift, answers each of its own projected answers, and
//! answers any other answer of the union exactly when the member alone
//! has it — so a lift that derived a wrong value, or missed, shows here.

use std::collections::HashSet;
use std::sync::Arc;
use ucq_core::{
    evaluate_ucq_naive_set, fd_rewrite, Algorithm1, Strategy, UcqEngine, UcqPipelinePrep, Verdict,
};
use ucq_enumerate::Enumerator;
use ucq_query::Ucq;
use ucq_storage::{CtxView, Instance, Tuple, ValueId};
use ucq_workloads::catalog;
use ucq_workloads::random::{
    random_fd_instance, random_fd_union, random_instance, random_union_extension, InstanceSpec,
};
use ucq_yannakakis::{CdyEngine, ContainsScratch, SharedShapes};

/// `row`'s values as `ctx`'s ids; `None` if one was never interned.
fn ids_of(ctx: &CtxView, row: &Tuple) -> Option<Vec<ValueId>> {
    row.values().iter().map(|&v| ctx.lookup(v)).collect()
}

fn audit(u: &Ucq, inst: &Instance, case: &str) {
    let engine = UcqEngine::new(u.clone());
    assert_eq!(engine.strategy(), Strategy::UnionExtension, "{case}");
    let c = engine.classification();
    let Verdict::FreeConnex { plan } = &c.verdict else {
        unreachable!("the arm implies a free-connex verdict");
    };
    let ctx = CtxView::new();
    let costed = engine
        .search()
        .expect("free-connex unions keep their search")
        .plan(inst, &ctx)
        .plan;
    let want = evaluate_ucq_naive_set(u, inst).expect("evaluates");
    for (which, plan) in [("certificate", plan), ("costed", &costed)] {
        let prep =
            UcqPipelinePrep::prepare(&c.minimized, Arc::new(plan.clone()), &[], inst, &ctx, None)
                .unwrap();
        let mut scratch = ContainsScratch::default();
        for (m, eng) in prep.engines().iter().enumerate() {
            for row in eng.iter().collect_all() {
                let ids = ids_of(&ctx, &row).expect("an answer's values are interned");
                assert!(
                    eng.contains_ids(&ids, &mut scratch),
                    "{case}: {which} plan, extended member {m} misses its own {row:?}"
                );
            }
        }
        let got = Algorithm1::from_engines(prep.engines().to_vec()).collect_all();
        let set: HashSet<Tuple> = got.iter().cloned().collect();
        assert_eq!(got.len(), set.len(), "{case}: {which} plan repeats");
        assert_eq!(set, want, "{case}: {which} plan");
    }
}

#[test]
fn every_extended_member_answers_membership_probes() {
    let on_the_arm: Vec<_> = catalog()
        .into_iter()
        .filter(|e| UcqEngine::new(e.ucq.clone()).strategy() == Strategy::UnionExtension)
        .collect();
    assert!(
        on_the_arm.len() >= 5,
        "{} catalog entries",
        on_the_arm.len()
    );
    for (k, e) in on_the_arm.iter().enumerate() {
        let inst = random_instance(&e.ucq, &InstanceSpec::scaled(40, k as u64));
        audit(&e.ucq, &inst, e.id);
    }
    for seed in 0..200 {
        let u = random_union_extension(seed);
        let inst = random_instance(&u, &InstanceSpec::scaled(24, seed));
        audit(&u, &inst, &format!("seed {seed}: {u:?}"));
    }
}

#[test]
fn every_lifted_member_of_an_fd_rewrite_answers_membership_probes() {
    let (mut members, mut probes) = (0, 0);
    for seed in 0..60 {
        let (u, fds) = random_fd_union(seed);
        let spec = InstanceSpec {
            rows_per_relation: 30,
            domain: 6,
            seed,
        };
        let inst = random_fd_instance(&u, &fds, &spec);
        let rewrite = fd_rewrite(&u, &fds).unwrap();
        let widened = rewrite.instance(&inst).unwrap();
        let union = evaluate_ucq_naive_set(&u, &inst).unwrap();
        let ctx = CtxView::new();
        let shared = SharedShapes::of(rewrite.ucq.cqs());
        let k = rewrite.answer_arity;
        let mut scratch = ContainsScratch::default();
        for (m, cq) in rewrite.ucq.cqs().iter().enumerate() {
            let case = format!("seed {seed}, member {m}: {u:?} under {:?}", fds.fds());
            let lift = rewrite.lift(m);
            assert_eq!(k + lift.len(), cq.head().len(), "{case}");
            let output = cq.head()[..k].to_vec();
            let built =
                CdyEngine::build_rooted(cq, cq.free(), output, lift, &shared, &widened, &ctx);
            let Ok(eng) = built else {
                continue; // not free-connex alone: the Theorem 12 arm extends it
            };
            members += 1;
            let alone = Ucq::new(vec![u.cqs()[m].clone()]).unwrap();
            let mine = evaluate_ucq_naive_set(&alone, &inst).unwrap();
            let own = eng.iter().collect_all();
            assert_eq!(own.iter().cloned().collect::<HashSet<_>>(), mine, "{case}");
            assert_eq!(own.len(), mine.len(), "{case}: projected answers repeat");
            for row in &union {
                let member =
                    ids_of(&ctx, row).is_some_and(|ids| eng.contains_ids(&ids, &mut scratch));
                assert_eq!(member, mine.contains(row), "{case}: {row:?}");
                probes += 1;
            }
        }
    }
    assert!(members >= 60, "only {members} lifted members audited");
    assert!(probes >= 1000, "only {probes} probes");
}

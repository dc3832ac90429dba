//! Membership audit of the Theorem 12 arm: every extended member a
//! union-extension union builds answers membership probes, so a prepared
//! request runs Algorithm 1 over the extended members and never the
//! Cheater (whose dedup set grows with the output). Algorithm 1 over the
//! extended members then answers the union, each answer once.
//!
//! Audited: every catalog entry on the arm, and 200 random union-extension
//! unions, each under the classification's first-found plan and under the
//! costed plan the engine executes. No member has been found without a
//! membership plan; one that lacked it would send its union through the
//! Cheater, and this test names it.

use std::collections::HashSet;
use ucq_core::{
    evaluate_ucq_naive_set, plan_free_connex_costed, Algorithm1, SearchConfig, Strategy, UcqEngine,
    UcqPipelinePrep, Verdict,
};
use ucq_enumerate::Enumerator;
use ucq_query::Ucq;
use ucq_storage::{CtxView, Instance, Tuple};
use ucq_workloads::catalog;
use ucq_workloads::random::{random_instance, random_union_extension, InstanceSpec};

fn audit(u: &Ucq, inst: &Instance, case: &str) {
    let engine = UcqEngine::new(u.clone());
    assert_eq!(engine.strategy(), Strategy::UnionExtension, "{case}");
    let c = engine.classification();
    let Verdict::FreeConnex { plan } = &c.verdict else {
        unreachable!("the arm implies a free-connex verdict");
    };
    let ctx = CtxView::new();
    let costed = plan_free_connex_costed(&c.minimized, &SearchConfig::default(), inst, &ctx)
        .expect("free-connex unions have a costed plan")
        .plan;
    let want = evaluate_ucq_naive_set(u, inst).expect("evaluates");
    for (which, plan) in [("first-found", plan), ("costed", &costed)] {
        let prep = UcqPipelinePrep::prepare(&c.minimized, plan, inst, &ctx).unwrap();
        for (m, eng) in prep.engines().iter().enumerate() {
            assert!(
                eng.has_membership(),
                "{case}: {which} plan, extended member {m} has no membership plan"
            );
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

//! Model-checks the serve-phase races layered on the freeze protocol: the
//! shared plan-cache insert race and `CdyEngine`'s lazily built row-sets —
//! all through the *public* evaluation entry points, so the production
//! code paths themselves run under the explorer. (The engine's search is
//! built when it classifies, so pricing a plan reads it without a race.)
//!
//! Run with the seam active for full interleaving coverage:
//!
//! ```text
//! RUSTFLAGS="--cfg ucq_model_check" cargo test -p ucq-core --test model_check_plan_cache
//! ```
//!
//! Under the seam every lock/atomic in the pipeline is a decision point,
//! so the schedule space is huge; these tests cap exploration and accept
//! truncation — the point is that *every explored schedule* serves
//! correct answers, not that the space is exhausted. Under a plain
//! `cargo test` the same assertions run over the (few) spawn/join
//! interleavings.

use std::collections::HashSet;
use std::sync::Arc;
use ucq_core::UcqEngine;
use ucq_enumerate::Enumerator;
use ucq_query::{parse_cq, parse_ucq};
use ucq_storage::{CtxView, Instance, Relation, Tuple, Value, ValueId};
use ucq_yannakakis::{CdyEngine, ContainsScratch};

fn capped() -> shuttle::Config {
    shuttle::Config {
        max_schedules: 200,
        max_preemptions: 2,
    }
}

fn chain_instance() -> Instance {
    [
        ("R1", Relation::from_pairs([(1, 2), (5, 2)])),
        ("R2", Relation::from_pairs([(2, 3)])),
        ("R3", Relation::from_pairs([(3, 4)])),
    ]
    .into_iter()
    .collect()
}

/// Two serving threads race `enumerate_in` over one frozen context: both
/// may miss the plan cache, price a plan, and `store_plan` it — the last
/// insert wins, and every explored schedule must serve the exact answer
/// set either way.
#[test]
fn plan_cache_insert_race_serves_exact_answers() {
    let ucq = parse_ucq(
        "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
         Q2(x, y, w) <- R1(x, y), R2(y, w)",
    )
    .unwrap();
    let instance = Arc::new(chain_instance());
    let baseline: HashSet<Tuple> = UcqEngine::new(ucq.clone())
        .enumerate(&instance)
        .unwrap()
        .collect_all()
        .into_iter()
        .collect();
    assert!(!baseline.is_empty(), "degenerate baseline");

    let report = shuttle::model_with(capped(), move || {
        // Fresh engine + fresh frozen context per schedule, so the
        // OnceLock and the plan cache are racy in *every* schedule, not
        // just the first.
        let eng = Arc::new(UcqEngine::new(ucq.clone()));
        let ctx = CtxView::new().freeze();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let eng = Arc::clone(&eng);
                let ctx = ctx.clone();
                let instance = Arc::clone(&instance);
                let baseline = baseline.clone();
                shuttle::thread::spawn(move || {
                    let got: HashSet<Tuple> = eng
                        .enumerate_in(&ctx, &instance)
                        .expect("enumeration failed mid-race")
                        .collect_all()
                        .into_iter()
                        .collect();
                    assert_eq!(got, baseline, "racy plan produced wrong answers");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(
        report.schedules > 1,
        "explored only {} schedules",
        report.schedules
    );
}

/// `CdyEngine`'s per-node row-sets are built lazily via `OnceLock`
/// inside `contains_ids`; two threads probing concurrently must agree with
/// the sequential truth on every explored schedule.
#[test]
fn row_set_once_lock_init_race_keeps_membership_exact() {
    let cq = parse_cq("Q(x, y) <- R(x, y), S(y, z)").unwrap();
    let instance: Instance = [
        ("R", Relation::from_pairs([(1, 2), (7, 8)])),
        ("S", Relation::from_pairs([(2, 3)])),
    ]
    .into_iter()
    .collect();
    let instance = Arc::new(instance);

    let report = shuttle::model_with(capped(), move || {
        let ctx = CtxView::new().freeze();
        let eng =
            Arc::new(CdyEngine::for_query_in(&cq, &instance, &ctx).expect("free-connex query"));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let eng = Arc::clone(&eng);
                shuttle::thread::spawn(move || {
                    // Both rows' values are interned; only the first is an
                    // answer.
                    let contains = |row: [i64; 2]| {
                        let ids: Vec<ValueId> = row
                            .iter()
                            .map(|&v| eng.context().lookup(Value::Int(v)).expect("interned"))
                            .collect();
                        eng.contains_ids(&ids, &mut ContainsScratch::default())
                    };
                    assert!(contains([1, 2]), "answer lost during row-set init race");
                    assert!(!contains([7, 8]), "phantom answer during init race");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(
        report.schedules > 1,
        "explored only {} schedules",
        report.schedules
    );
}

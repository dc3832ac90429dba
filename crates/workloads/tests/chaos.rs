//! The chaos suite: fault-injected serving against an in-process oracle.
//!
//! ```text
//! RUSTFLAGS="--cfg ucq_fault_inject" cargo test -p ucq-workloads --test chaos
//! ```
//!
//! Without the cfg this file compiles to an empty (cleanly passing) test
//! binary — the hooks it drives are no-ops and the scenarios would assert
//! nothing. With the cfg, each scenario installs a deterministic
//! [`FaultPlan`], pushes a mix of fault-armed and clean requests through
//! a real `ucq-serve` pool, and checks the resilience contract:
//!
//! * clean requests co-scheduled with faulted ones still match the
//!   value-level oracle (`enumerate_naive`) exactly;
//! * the pool never wedges — every ticket resolves, workers join;
//! * every shed, timeout, panic, and completion is accounted exactly
//!   once (`ServeStats::is_balanced`).
//!
//! The fault plan is process-global, so the scenarios serialize on a
//! static mutex and reset the plan on exit (panic-safe via a drop guard).

#![cfg(ucq_fault_inject)]

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use ucq_core::UcqEngine;
use ucq_query::parse_ucq;
use ucq_serve::{
    serve, QueryBudget, Request, RequestError, RequestOutcome, ServeConfig, Served, Truncation,
};
use ucq_storage::faults::{self, FaultPlan, INJECTED_PANIC_MSG};
use ucq_storage::{Instance, Relation, Tuple, Value};
use ucq_workloads::{drive, Churn, LoadSpec};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes a scenario and installs its plan; clears the plan (and
/// releases the lock) on drop, even if the scenario's asserts panic.
struct Scenario<'a> {
    _guard: MutexGuard<'a, ()>,
}

impl Scenario<'_> {
    fn install(plan: FaultPlan) -> Scenario<'static> {
        let guard = match SERIAL.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        faults::install(plan);
        Scenario { _guard: guard }
    }
}

impl Drop for Scenario<'_> {
    fn drop(&mut self) {
        faults::clear();
    }
}

fn engine_and_instance(rows: usize) -> (UcqEngine, Instance) {
    let u = parse_ucq("Q(x, y) <- R(x, y)").unwrap();
    let engine = UcqEngine::new(u);
    let pairs: Vec<(i64, i64)> = (0..rows as i64).map(|i| (i, i + 1)).collect();
    let instance: Instance = [("R", Relation::from_pairs(pairs))].into_iter().collect();
    (engine, instance)
}

fn sorted(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort();
    tuples
}

/// Injected panics: armed requests die with the seam's message, clean
/// requests co-scheduled on the same pool stay oracle-identical, and the
/// workers keep serving after every panic.
#[test]
fn panics_are_isolated_and_clean_requests_stay_correct() {
    // Every arm decodes a block at a time, so an armed request visits the
    // decode hook once per 512-row block: 8 armed requests of 3 blocks.
    let _scenario = Scenario::install(FaultPlan {
        panic_every: 5,
        ..FaultPlan::default()
    });
    let (engine, instance) = engine_and_instance(1300);
    let oracle = sorted(engine.enumerate_naive(&instance).unwrap());
    let frozen = Arc::new(engine.session(&instance).freeze().unwrap());

    let config = ServeConfig::new(2, 32).unwrap();
    let ((clean, faulted), stats) = serve(config, |handle| {
        let mut clean_tickets = Vec::new();
        let mut fault_tickets = Vec::new();
        // Interleave so clean and armed requests genuinely co-schedule.
        for _ in 0..8 {
            let armed = Request::new(Arc::clone(&frozen)).with_fault_injection();
            fault_tickets.push(handle.submit(armed).unwrap());
            let plain = Request::new(Arc::clone(&frozen));
            clean_tickets.push(handle.submit(plain).unwrap());
        }
        let clean: Vec<RequestOutcome> = clean_tickets.into_iter().map(|t| t.wait()).collect();
        let faulted: Vec<RequestOutcome> = fault_tickets.into_iter().map(|t| t.wait()).collect();
        (clean, faulted)
    });

    // Every clean request survived the co-scheduled panics bit-exact.
    for outcome in &clean {
        match outcome {
            Ok(served) => assert_eq!(
                sorted(served.answers().to_vec()),
                oracle,
                "a clean request diverged from the oracle under chaos"
            ),
            Err(e) => panic!("clean request failed: {e}"),
        }
    }
    // Armed requests either absorbed an injected panic (typed Internal
    // carrying the seam's message) or completed oracle-identical.
    let mut panicked = 0usize;
    for outcome in &faulted {
        match outcome {
            Err(RequestError::Internal { detail }) => {
                assert_eq!(detail, INJECTED_PANIC_MSG);
                panicked += 1;
            }
            Ok(served) => assert_eq!(sorted(served.answers().to_vec()), oracle),
            Err(e) => panic!("armed request failed atypically: {e}"),
        }
    }
    assert!(panicked > 0, "the panic schedule never fired");
    assert!(faults::injected().panics >= panicked as u64);
    assert_eq!(stats.panicked, panicked);
    assert_eq!(stats.submitted, 16);
    assert!(stats.is_balanced(), "unbalanced books: {stats:?}");
}

/// Injected per-operation delays push armed, deadline'd requests past
/// their budget: they must come back `Partial(Deadline)` within one block
/// while undelayed completions stay exact — and the books still balance.
#[test]
fn delays_force_deadline_timeouts_within_one_block() {
    // One armed hook visit per decoded block: every block is delayed.
    let _scenario = Scenario::install(FaultPlan {
        delay_every: 1,
        delay_micros: 800,
        ..FaultPlan::default()
    });
    // 2000 answers span several 512-row budget blocks, so a mid-stream
    // deadline has boundaries to fire at.
    let (engine, instance) = engine_and_instance(2000);
    let frozen = Arc::new(engine.session(&instance).freeze().unwrap());

    let config = ServeConfig::new(2, 16).unwrap();
    let (outcomes, stats) = serve(config, |handle| {
        let tickets: Vec<_> = (0..4)
            .map(|_| {
                let req = Request::new(Arc::clone(&frozen))
                    .with_budget(QueryBudget::unlimited().with_timeout(Duration::from_millis(1)))
                    .with_fault_injection();
                handle.submit(req).unwrap()
            })
            .collect();
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    });

    let mut timed_out = 0usize;
    for outcome in outcomes {
        match outcome.unwrap() {
            Served::Partial {
                answers,
                truncated_by: Truncation::Deadline,
            } => {
                // Cooperative enforcement: at most one block past the
                // boundary where the deadline was noticed.
                assert!(
                    answers.len() <= 1024,
                    "deadline overran a block: {} answers",
                    answers.len()
                );
                timed_out += 1;
            }
            Served::Partial { truncated_by, .. } => {
                panic!("unexpected truncation {truncated_by} under a deadline plan")
            }
            // A fast schedule may let a request finish inside its budget.
            Served::Complete { .. } => {}
        }
    }
    assert!(timed_out > 0, "the delay schedule never tripped a deadline");
    assert!(faults::injected().delays > 0);
    assert_eq!(stats.timed_out, timed_out);
    assert_eq!(stats.partial, timed_out);
    assert!(stats.is_balanced(), "unbalanced books: {stats:?}");
}

/// Forced overflow-overlay misses divert the frozen-dictionary fast path
/// through the overlay mutex; the diversion must be semantically
/// invisible — armed enumerations stay oracle-identical.
#[test]
fn forced_overlay_misses_are_semantically_invisible() {
    let _scenario = Scenario::install(FaultPlan {
        overlay_miss_every: 1,
        ..FaultPlan::default()
    });
    let (engine, instance) = engine_and_instance(200);
    let oracle = sorted(engine.enumerate_naive(&instance).unwrap());
    let frozen = Arc::new(engine.session(&instance).freeze().unwrap());

    let config = ServeConfig::new(2, 16).unwrap();
    let (outcomes, stats) = serve(config, |handle| {
        let tickets: Vec<_> = (0..6)
            .map(|_| {
                let req = Request::new(Arc::clone(&frozen)).with_fault_injection();
                handle.submit(req).unwrap()
            })
            .collect();
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    });

    for outcome in outcomes {
        let served = outcome.unwrap();
        assert!(!served.is_partial());
        assert_eq!(sorted(served.into_answers()), oracle);
    }
    assert_eq!(stats.completed, 6);
    assert!(stats.is_balanced());

    // The enumeration path may or may not consult the dictionary; pin the
    // diversion itself at the storage layer: an armed lookup under an
    // every-visit miss plan must take the overlay path and still resolve
    // snapshot values correctly.
    let before = faults::injected().forced_misses;
    let (id, hit) = faults::armed(|| {
        let id = frozen.context().intern(Value::Int(7));
        (id, frozen.context().lookup(Value::Int(7)))
    });
    assert_eq!(hit, Some(id), "forced-miss lookup lost a value");
    assert!(
        faults::injected().forced_misses > before,
        "the miss schedule never fired on an armed intern/lookup"
    );
}

/// Overload under chaos: one delayed worker behind a two-deep queue and a
/// twelve-request burst — sheds must be typed, drains must resolve, and
/// shed + completed + partial + panicked + drained must equal submitted.
#[test]
fn overload_accounting_is_exact_under_chaos() {
    let _scenario = Scenario::install(FaultPlan {
        delay_every: 2,
        delay_micros: 200,
        ..FaultPlan::default()
    });
    let (engine, instance) = engine_and_instance(200);
    let frozen = Arc::new(engine.session(&instance).freeze().unwrap());

    let config = ServeConfig::new(1, 2).unwrap();
    let ((sheds, outcomes), stats) = serve(config, |handle| {
        let mut sheds = 0usize;
        let mut tickets = Vec::new();
        for _ in 0..12 {
            let req = Request::new(Arc::clone(&frozen)).with_fault_injection();
            match handle.submit(req) {
                Ok(t) => tickets.push(t),
                Err(RequestError::Overloaded { depth, capacity }) => {
                    assert_eq!(capacity, 2);
                    assert_eq!(depth, capacity);
                    sheds += 1;
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        let outcomes: Vec<RequestOutcome> = tickets.into_iter().map(|t| t.wait()).collect();
        (sheds, outcomes)
    });

    assert!(sheds > 0, "the burst never overflowed the two-deep queue");
    assert!(
        outcomes.iter().all(|o| o.is_ok()),
        "an admitted request failed"
    );
    assert_eq!(stats.submitted, 12);
    assert_eq!(stats.shed, sheds);
    assert_eq!(stats.completed, outcomes.len());
    assert_eq!(
        stats.shed + stats.completed + stats.partial + stats.panicked + stats.drained,
        stats.submitted,
        "accounting identity violated: {stats:?}"
    );
    assert!(stats.is_balanced());
    assert!(stats.queue_high_water <= 2);
}

/// Epoch rotation under injected refreeze panics: every armed refreeze
/// dies at its first probe site, so no rotation ever installs — and the
/// pool must keep serving the original epoch, oracle-identical, with a
/// balanced ledger. This is the crash-safety half of the zero-downtime
/// claim: a failed rebuild never takes down (or corrupts) serving.
#[test]
fn faulted_refreeze_leaves_previous_epoch_serving() {
    let _scenario = Scenario::install(FaultPlan {
        panic_every: 1,
        ..FaultPlan::default()
    });
    let engine = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y), S(y, w)").unwrap());
    let instance: Instance = [
        ("R", Relation::from_pairs((0..50).map(|i| (i, i % 10)))),
        ("S", Relation::from_pairs((0..10).map(|i| (i, i + 1)))),
    ]
    .into_iter()
    .collect();
    let deltas: Vec<Relation> = (0..3)
        .map(|d| Relation::from_pairs([(200 + d, d % 10)]))
        .collect();
    let spec = LoadSpec::steady(2, 64, 6).with_faulted_rotations();
    let churn = Churn {
        rel: "R",
        deltas: &deltas,
    };
    let report = drive(&engine, &instance, churn, &spec).unwrap();

    assert_eq!(report.rotations_attempted, 3);
    assert_eq!(
        report.rotations_installed, 0,
        "panic_every=1 must abort every refreeze: {report:?}"
    );
    assert_eq!(report.final_epoch, 0, "the original epoch stays installed");
    assert!(
        faults::injected().panics >= 3,
        "the panic schedule never hit"
    );
    // Serving never noticed: nothing shed, nothing panicked (request
    // threads are unarmed), every drain matches the epoch-0 oracle.
    assert!(report.oracle_identical(), "{report:?}");
    assert_eq!(report.matched(), report.drains);
    assert_eq!(report.pinned_to_submit_epoch, report.drains);
    assert_eq!(report.serve.shed, 0);
    assert_eq!(report.serve.panicked, 0);
    assert_eq!(
        report.drains + report.serve.drained,
        report.serve.submitted,
        "rotation ledger does not balance: {report:?}"
    );
}

/// Epoch rotation with forced overlay misses armed around every refreeze:
/// the misses divert dictionary fast paths through the overlay lock but
/// are semantically invisible, so every rotation must install and serving
/// must stay oracle-identical across each epoch boundary.
#[test]
fn rotation_under_forced_overlay_misses_stays_oracle_identical() {
    let _scenario = Scenario::install(FaultPlan {
        overlay_miss_every: 1,
        ..FaultPlan::default()
    });
    let engine = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y), S(y, w)").unwrap());
    let instance: Instance = [
        ("R", Relation::from_pairs((0..40).map(|i| (i, i % 8)))),
        ("S", Relation::from_pairs((0..8).map(|i| (i, i + 1)))),
    ]
    .into_iter()
    .collect();
    let deltas: Vec<Relation> = (0..2)
        .map(|d| Relation::from_pairs([(300 + d, d % 8)]))
        .collect();
    let spec = LoadSpec::steady(2, 64, 5).with_faulted_rotations();
    let churn = Churn {
        rel: "R",
        deltas: &deltas,
    };
    let report = drive(&engine, &instance, churn, &spec).unwrap();

    assert_eq!(
        report.rotations_installed, 2,
        "forced misses must not abort a rotation: {report:?}"
    );
    assert_eq!(report.final_epoch, 2);
    assert!(report.oracle_identical(), "{report:?}");
    assert_eq!(report.serve.shed, 0);
    assert_eq!(report.drains + report.serve.drained, report.serve.submitted);

    // Pin the diversion on the rotated snapshot itself: an armed lookup
    // against the *new* epoch's frozen context must take the overlay path
    // and still resolve every value interned across the rotation.
    let session = engine.session(&instance).freeze().unwrap();
    let r2 = session
        .build_context()
        .insert_rows(&instance.get_shared("R").unwrap(), &deltas[0]);
    let rotated = session
        .refreeze(&instance.with_relation_shared("R", r2))
        .unwrap();
    let before = faults::injected().forced_misses;
    let hit = faults::armed(|| rotated.context().lookup(Value::Int(300)));
    assert!(hit.is_some(), "a delta value vanished across the rotation");
    assert!(
        faults::injected().forced_misses > before,
        "the miss schedule never fired on the rotated snapshot"
    );
}

/// The canned chaos mix through the workloads driver: whatever the
/// interleaving, the report's ledger must balance and the pool must
/// produce real answers.
#[test]
fn canned_chaos_mix_balances_its_ledger() {
    // Two blocks, so two armed probe/decode visits, per armed request.
    let _scenario = Scenario::install(FaultPlan {
        panic_every: 7,
        delay_every: 3,
        delay_micros: 500,
        overlay_miss_every: 8,
    });
    let (engine, instance) = engine_and_instance(600);
    let report = drive(&engine, &instance, Churn::NONE, &LoadSpec::chaos(2, 30)).unwrap();

    assert_eq!(report.serve.submitted, 30);
    // This query cannot produce eval errors, so the ledger closes over
    // exactly these four outcome classes — `drains` counts the Ok
    // resolutions (complete + partial).
    let ledger = report.serve;
    assert_eq!(
        report.drains + ledger.shed + ledger.panicked + ledger.drained,
        ledger.submitted,
        "ledger does not balance: {report:?}"
    );
    assert!(report.total_answers > 0, "chaos starved every request");
    assert!(ledger.timed_out <= ledger.partial);
    // Latencies are recorded only for requests that produced answers.
    assert!(report.resolution_ns.len() <= report.drains);
    // Whatever was cut short or delayed, nothing served a wrong answer.
    assert!(report.oracle_identical(), "{report:?}");
}

//! The load driver: one bounded `ucq-serve` pool, a [`LoadSpec`] mix of
//! well-behaved and misbehaving requests, and — between request batches —
//! delta ingestion and epoch re-freezing under the live traffic.
//!
//! Requests resolve their session through a shared [`EpochCell`]
//! ([`Request::from_cell`]). After each batch the driver ingests the next
//! delta into the session's build context (`insert_rows`), re-freezes the
//! next epoch ([`ucq_core::FrozenSession::refreeze`] — delta-proportional
//! work) and installs it into the cell *while the batch is still in
//! flight*. A fixed snapshot is the same run with no deltas
//! ([`Churn::NONE`]). The report proves the serving claims:
//!
//! * every submission lands in exactly one ledger entry, and nothing is
//!   shed because of a rotation (the pool never pauses);
//! * every drained request's answers — without repeats — equal a
//!   fresh-build oracle of some epoch at or after the one current when it
//!   was submitted (or, for a budget-truncated request, are part of one):
//!   in-flight requests finish on their old epoch, later ones see the new;
//! * with [`LoadSpec::fault_rotations`] (chaos suite, under
//!   `--cfg ucq_fault_inject`), a refreeze killed by an injected panic
//!   leaves the previous epoch installed and serving.
//!
//! The `ucq serve-bench` command, this crate's tests and the chaos suite
//! all drive this one entry point.

use crate::{LoadReport, LoadSpec};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use ucq_core::{EvalError, UcqEngine};
use ucq_enumerate::Enumerator;
use ucq_serve::{serve, EpochCell, Request, ServeConfig};
use ucq_storage::{faults, Instance, Relation, Tuple};

/// The write side of a run: deltas rotated, one per phase, into one
/// relation of the instance.
#[derive(Clone, Copy, Debug)]
pub struct Churn<'a> {
    /// The relation the deltas are inserted into.
    pub rel: &'a str,
    /// One delta per rotation.
    pub deltas: &'a [Relation],
}

impl Churn<'static> {
    /// No writes: one phase of requests against a fixed snapshot.
    pub const NONE: Churn<'static> = Churn {
        rel: "",
        deltas: &[],
    };
}

/// A fresh-build oracle: one-shot enumeration with a private context.
fn oracle(engine: &UcqEngine, instance: &Instance) -> Result<HashSet<Tuple>, EvalError> {
    Ok(engine
        .enumerate(instance)?
        .collect_all()
        .into_iter()
        .collect())
}

/// Serves `spec.requests` requests per phase through a bounded pool while
/// rotating `churn.deltas` into `churn.rel` one at a time: ingest via
/// `insert_rows` on the live session's build context, build the next epoch
/// with `refreeze`, install it into the shared [`EpochCell`] — all without
/// pausing the pool. Every drained request is checked against the
/// fresh-build oracles of the epochs it could legitimately have served.
pub fn drive(
    engine: &UcqEngine,
    instance: &Instance,
    churn: Churn<'_>,
    spec: &LoadSpec,
) -> Result<LoadReport, EvalError> {
    let config = ServeConfig::new(spec.workers, spec.queue_capacity)
        .expect("a load spec needs positive workers and queue capacity");
    let mut expected = vec![oracle(engine, instance)?];
    let cell = Arc::new(EpochCell::from_arc(Arc::new(
        engine.session(instance).freeze()?,
    )));
    let mut current = instance.clone();
    let mut report = LoadReport {
        workers: spec.workers,
        rotations_attempted: churn.deltas.len(),
        ..LoadReport::default()
    };
    let t0 = Instant::now();
    let (resolved, stats) = serve(config, |handle| -> Result<_, EvalError> {
        let mut tickets = Vec::with_capacity((churn.deltas.len() + 1) * spec.requests);
        let mut index = 0usize;
        for phase in 0..=churn.deltas.len() {
            for _ in 0..spec.requests {
                let at_epoch = cell.epoch();
                let submitted_at = Instant::now();
                index += 1;
                let request = spec.dress(index, Request::from_cell(Arc::clone(&cell)));
                // Shed submissions are already accounted by the runtime.
                if let Ok(ticket) = handle.submit(request) {
                    tickets.push((at_epoch, submitted_at, ticket));
                }
            }
            let Some(delta) = churn.deltas.get(phase) else {
                break;
            };
            // Rotate while this phase's requests are still in flight: O(Δ)
            // ingest into the shared build context, delta-only refreeze,
            // epoch install. The pool never stops admitting.
            let session = cell.load();
            let base = current
                .get_shared(churn.rel)
                .expect("churn relation exists in the instance");
            let next_rel = session.build_context().insert_rows(&base, delta);
            let next_instance = current.with_relation_shared(churn.rel, next_rel);
            let refrozen = if spec.fault_rotations {
                catch_unwind(AssertUnwindSafe(|| {
                    faults::armed(|| session.refreeze(&next_instance))
                }))
            } else {
                Ok(session.refreeze(&next_instance))
            };
            // An injected panic killed the rotation mid-refreeze: the cell
            // still holds the previous epoch and serving continues on it.
            if let Ok(next) = refrozen {
                cell.install(Arc::new(next?));
                expected.push(oracle(engine, &next_instance)?);
                current = next_instance;
                report.rotations_installed += 1;
            }
        }
        Ok(tickets
            .into_iter()
            .filter_map(|(at_epoch, submitted_at, ticket)| {
                let served = ticket.wait().ok()?;
                Some((at_epoch, submitted_at.elapsed().as_nanos() as u64, served))
            })
            .collect::<Vec<_>>())
    });
    report.elapsed = t0.elapsed();
    report.serve = stats;
    report.final_epoch = cell.epoch();
    for (at_epoch, latency_ns, served) in resolved? {
        let answers = served.answers();
        report.drains += 1;
        report.total_answers += answers.len();
        if !answers.is_empty() {
            report.resolution_ns.push(latency_ns);
        }
        let got: HashSet<&Tuple> = answers.iter().collect();
        let fits = |want: &HashSet<Tuple>| {
            got.len() == answers.len()
                && got.iter().all(|t| want.contains(*t))
                && (served.is_partial() || got.len() == want.len())
        };
        match expected[at_epoch as usize..].iter().position(fits) {
            Some(0) => report.pinned_to_submit_epoch += 1,
            Some(_) => report.upgraded_epoch += 1,
            None => report.mismatched += 1,
        }
    }
    report.resolution_ns.sort_unstable();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_query::parse_ucq;

    fn deltas(n: usize, start: i64) -> Vec<Relation> {
        (0..n as i64)
            .map(|d| Relation::from_pairs([(start + 2 * d, start + 2 * d + 1)]))
            .collect()
    }

    #[test]
    fn algorithm1_rotation_is_oracle_identical_with_zero_shed() {
        let engine = UcqEngine::new(parse_ucq("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)").unwrap());
        let instance: Instance = [
            ("R", Relation::from_pairs((0..20).map(|i| (i, i + 1)))),
            ("S", Relation::from_pairs([(100, 101)])),
        ]
        .into_iter()
        .collect();
        let spec = LoadSpec::steady(2, 64, 8);
        let churn = Churn {
            rel: "R",
            deltas: &deltas(3, 1000),
        };
        let report = drive(&engine, &instance, churn, &spec).unwrap();
        assert_eq!(report.rotations_installed, 3);
        assert_eq!(report.final_epoch, 3);
        assert!(report.oracle_identical(), "{report:?}");
        assert_eq!(report.serve.shed, 0, "rotation never sheds");
        assert_eq!(report.drains, 4 * 8, "every request drained");
        assert_eq!(report.matched(), 4 * 8);
    }

    #[test]
    fn union_extension_rotation_is_oracle_identical() {
        let engine = UcqEngine::new(
            parse_ucq(
                "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
                 Q2(x, y, w) <- R1(x, y), R2(y, w)",
            )
            .unwrap(),
        );
        let instance: Instance = [
            ("R1", Relation::from_pairs([(1, 2), (1, 5), (9, 7)])),
            ("R2", Relation::from_pairs([(2, 3), (5, 3), (7, 0)])),
            ("R3", Relation::from_pairs([(3, 4), (3, 6), (0, 2)])),
        ]
        .into_iter()
        .collect();
        let spec = LoadSpec::steady(2, 32, 4);
        let ds = vec![
            Relation::from_pairs([(8, 2)]),
            Relation::from_pairs([(8, 5), (6, 7)]),
        ];
        let churn = Churn {
            rel: "R1",
            deltas: &ds,
        };
        let report = drive(&engine, &instance, churn, &spec).unwrap();
        assert_eq!(report.rotations_installed, 2);
        assert!(report.oracle_identical(), "{report:?}");
        assert_eq!(report.serve.shed, 0);
        assert!(report.total_answers > 0);
    }

    #[test]
    fn rotation_accounting_balances() {
        let engine = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y)").unwrap());
        let instance: Instance = [("R", Relation::from_pairs([(1, 2), (3, 4)]))]
            .into_iter()
            .collect();
        let spec = LoadSpec::steady(1, 16, 3);
        let churn = Churn {
            rel: "R",
            deltas: &deltas(2, 50),
        };
        let report = drive(&engine, &instance, churn, &spec).unwrap();
        assert_eq!(report.serve.submitted, 3 * 3);
        assert!(report.serve.is_balanced(), "{report:?}");
        assert_eq!(
            report.matched() + report.mismatched,
            report.drains,
            "every drained request classified"
        );
        assert_eq!(
            report.pinned_to_submit_epoch + report.upgraded_epoch,
            report.matched()
        );
    }
}

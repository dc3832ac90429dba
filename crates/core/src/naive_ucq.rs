//! Naive UCQ evaluation: the union of per-member naive evaluations with
//! global deduplication. Works for any UCQ (the fallback for queries the
//! classifier marks intractable or unknown) and serves as ground truth in
//! tests and as the baseline in benchmarks.
//!
//! Members are evaluated on the id layer (the batched-probe join of
//! [`evaluate_cq_naive_ids_in`]) and the union dedups flat id rows —
//! answers are decoded to value [`Tuple`]s exactly once, at the boundary.

use std::collections::HashSet;
use ucq_query::Ucq;
use ucq_storage::{CtxView, FastSet, InlineKey, Instance, Tuple, ValueId};
use ucq_yannakakis::{evaluate_cq_naive_ids_in, EvalError, IdTable};

/// Evaluates `Q(I)` by materializing every member and deduplicating. All
/// members share one context view, so atoms with equal shapes over the
/// same relation — within a member or across members — share normalized
/// data and join indexes.
pub fn evaluate_ucq_naive(ucq: &Ucq, instance: &Instance) -> Result<Vec<Tuple>, EvalError> {
    evaluate_ucq_naive_in(ucq, instance, &CtxView::new())
}

/// Evaluates the union on the id layer: per-member batched-probe joins,
/// union dedup on flat id rows, *no decode* — the result stays interned
/// under `ctx`'s dictionary. Answers are the first `width` head positions
/// of every member (the whole head, except under an FD rewrite whose heads
/// grew), cut before the dedup. This is the entry point for id-aware
/// callers (the engine's naive strategy replays the table through a
/// lazily-decoding facade).
pub fn evaluate_ucq_naive_ids_in(
    ucq: &Ucq,
    width: usize,
    instance: &Instance,
    ctx: &CtxView,
) -> Result<IdTable, EvalError> {
    let mut seen: FastSet<InlineKey> = FastSet::default();
    let mut union: Vec<ValueId> = Vec::new();
    let mut n_rows = 0usize;
    for cq in ucq.cqs() {
        let member = evaluate_cq_naive_ids_in(cq, instance, ctx)?;
        for row in member.rows() {
            let row = &row[..width];
            if seen.insert(InlineKey::from_slice(row)) {
                union.extend_from_slice(row);
                n_rows += 1;
            }
        }
    }
    Ok(IdTable {
        width,
        n_rows,
        data: union,
    })
}

/// As [`evaluate_ucq_naive`], sharing the caches of `ctx`; answers are
/// decoded once, at this boundary.
pub fn evaluate_ucq_naive_in(
    ucq: &Ucq,
    instance: &Instance,
    ctx: &CtxView,
) -> Result<Vec<Tuple>, EvalError> {
    Ok(evaluate_ucq_naive_ids_in(ucq, ucq.head_arity(), instance, ctx)?.decode(ctx))
}

/// Evaluates into a set.
pub fn evaluate_ucq_naive_set(ucq: &Ucq, instance: &Instance) -> Result<HashSet<Tuple>, EvalError> {
    Ok(evaluate_ucq_naive(ucq, instance)?.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_query::parse_ucq;
    use ucq_storage::Relation;

    #[test]
    fn union_dedups_across_members() {
        let u = parse_ucq("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)").unwrap();
        let i: Instance = [
            ("R", Relation::from_pairs([(1, 2), (3, 4)])),
            ("S", Relation::from_pairs([(3, 4), (5, 6)])),
        ]
        .into_iter()
        .collect();
        let got = evaluate_ucq_naive(&u, &i).unwrap();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn example1_redundant_member_changes_nothing() {
        let full = parse_ucq(
            "Q1(x, y) <- R1(x, y), R2(y, z), R3(z, x)\n\
             Q2(x, y) <- R1(x, y), R2(y, z)",
        )
        .unwrap();
        let only_q2 = parse_ucq("Q2(x, y) <- R1(x, y), R2(y, z)").unwrap();
        let i: Instance = [
            ("R1", Relation::from_pairs([(1, 2), (2, 3)])),
            ("R2", Relation::from_pairs([(2, 1), (3, 1)])),
            ("R3", Relation::from_pairs([(1, 1)])),
        ]
        .into_iter()
        .collect();
        let a = evaluate_ucq_naive_set(&full, &i).unwrap();
        let b = evaluate_ucq_naive_set(&only_q2, &i).unwrap();
        assert_eq!(a, b, "Q1 ⊆ Q2 means the union equals Q2");
    }
}

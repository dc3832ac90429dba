//! Naive CQ evaluation — the baseline the paper's upper bounds are measured
//! against.
//!
//! Evaluates a CQ by a left-deep sequence of hash joins over its atoms
//! (smallest relation first), materializing all intermediate bindings, then
//! projecting the head and deduplicating. Works for *every* CQ, cyclic or
//! not, at the cost of potentially super-linear intermediates.
//!
//! The accumulator is a flat row-major id table ([`IdTable`]): each join
//! step gathers the key run of a block of bindings and probes the cached
//! [`HashIndex`](ucq_storage::HashIndex) in bulk
//! ([`probe_batch`](ucq_storage::HashIndex::probe_batch)), then copies
//! matching bindings into the next flat table — no per-binding vector
//! allocation, and the index stays hot in cache for a whole block.
//!
//! All data flows through the shared context view: atom relations come
//! from the normalized-relation cache and the per-join hash indexes from the
//! [`IndexCache`](ucq_storage::IndexCache) — so evaluating the members of a
//! union (or re-evaluating in a session) reuses one set of indexes instead
//! of rebuilding per CQ.

use crate::cdy::EvalError;
use crate::noderel::NodeRel;
use std::collections::HashSet;
use std::sync::Arc;
use ucq_query::{Cq, VarId};
use ucq_storage::{
    fast_set_with_capacity, CtxView, FastSet, IdRel, InlineKey, Instance, Tuple, ValueId,
};

/// Bindings gathered/probed per block in the join inner loop.
const JOIN_BLOCK: usize = 2048;

/// A flat, row-major table of interned rows: `width` ids per row,
/// `data.len() == width * n_rows` (row count is tracked separately so
/// nullary tables can hold the single empty row).
#[derive(Clone, Debug, Default)]
pub struct IdTable {
    /// Ids per row.
    pub width: usize,
    /// Number of rows (authoritative; `data` is empty when `width == 0`).
    pub n_rows: usize,
    /// Row-major ids.
    pub data: Vec<ValueId>,
}

impl IdTable {
    /// Iterates over the rows as id slices (empty slices for width 0).
    pub fn rows(&self) -> impl Iterator<Item = &[ValueId]> {
        let width = self.width;
        (0..self.n_rows).map(move |r| &self.data[r * width..(r + 1) * width])
    }

    /// Decodes every row through `ctx`'s dictionary (nullary rows are a
    /// count: that many empty tuples).
    pub fn decode(&self, ctx: &CtxView) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.n_rows);
        ctx.decode_rows_into(self.width, self.n_rows, &self.data, &mut out);
        out
    }
}

/// Evaluates `Q(I)` naively with a private context, returning the
/// deduplicated answers in unspecified order.
pub fn evaluate_cq_naive(cq: &Cq, instance: &Instance) -> Result<Vec<Tuple>, EvalError> {
    let ctx = CtxView::new();
    Ok(evaluate_cq_naive_ids_in(cq, instance, &ctx)?.decode(&ctx))
}

/// Evaluates `Q(I)` naively on the id layer, returning the deduplicated
/// head projections as a flat [`IdTable`] under `ctx`'s dictionary — the
/// union evaluator dedups members on these ids and decodes once at the
/// boundary.
pub fn evaluate_cq_naive_ids_in(
    cq: &Cq,
    instance: &Instance,
    ctx: &CtxView,
) -> Result<IdTable, EvalError> {
    // Normalize atoms through the context cache (validating every atom's
    // arity, like the CDY path does).
    let mut nodes: Vec<(Vec<VarId>, Arc<IdRel>)> = Vec::with_capacity(cq.atoms().len());
    for atom in cq.atoms() {
        let node = match instance.get_shared(&atom.rel) {
            Some(rel) => NodeRel::derived(atom, &rel, ctx).map_err(EvalError::Schema)?,
            None => {
                let empty = NodeRel::empty(atom);
                (empty.vars, empty.rel)
            }
        };
        nodes.push(node);
    }
    let head_width = cq.head().len();
    // Any empty relation forces an empty join. Bail out before touching
    // the index cache — this also keeps the per-call `Arc`s built for
    // missing relations (fresh address each call) from being pinned into
    // the session's caches forever.
    if !nodes.is_empty() && nodes.iter().any(|(_, rel)| rel.is_empty()) {
        return Ok(IdTable {
            width: head_width,
            ..IdTable::default()
        });
    }
    // Join order: prefer joining atoms connected to what we have; among
    // candidates pick the smallest relation.
    let mut remaining: Vec<usize> = (0..nodes.len()).collect();
    remaining.sort_by_key(|&i| nodes[i].1.len());

    // Accumulated bindings over `acc_vars` (sorted var list), flat.
    let mut acc_vars: Vec<VarId> = Vec::new();
    let mut acc = IdTable {
        width: 0,
        n_rows: 1, // one empty binding
        data: Vec::new(),
    };

    while !remaining.is_empty() {
        // Pick a connected atom if possible; default to the smallest
        // relation among the connected (the first, since `remaining` is
        // size-sorted). With several connected candidates, estimate each
        // one's per-binding fanout (rows over the distinct counts of its
        // already-bound columns, from the context's cached RelStats) and
        // deviate from the default only for a decisive win — at least
        // twice as selective — so estimate noise on near-uniform inputs
        // can't flip an order the size sort already got right.
        let acc_set: HashSet<VarId> = acc_vars.iter().copied().collect();
        let pick_pos = {
            let connected: Vec<usize> = remaining
                .iter()
                .enumerate()
                .filter(|(_, &i)| nodes[i].0.iter().any(|v| acc_set.contains(v)))
                .map(|(pos, _)| pos)
                .collect();
            match connected.as_slice() {
                [] => 0,
                [only] => *only,
                // Statistics harvesting costs a pass over each candidate;
                // below this many rows the size-sorted default can't lose
                // enough to pay for it.
                candidates
                    if candidates
                        .iter()
                        .all(|&pos| nodes[remaining[pos]].1.len() < 4096) =>
                {
                    candidates[0]
                }
                candidates => {
                    let est = |pos: usize| {
                        let (vars, rel) = &nodes[remaining[pos]];
                        let stats = ctx.rel_stats(rel);
                        let mut fanout = stats.rows as f64;
                        for (c, v) in vars.iter().enumerate() {
                            if acc_set.contains(v) {
                                fanout /= stats.distinct.get(c).copied().unwrap_or(1).max(1) as f64;
                            }
                        }
                        fanout
                    };
                    let default = candidates[0];
                    let threshold = est(default) / 2.0;
                    let mut pick = (default, threshold);
                    for &pos in &candidates[1..] {
                        let f = est(pos);
                        if f < pick.1 {
                            pick = (pos, f);
                        }
                    }
                    pick.0
                }
            }
        };
        let i = remaining.remove(pick_pos);
        let (node_vars, node_rel) = &nodes[i];

        // Shared variables and their positions on both sides.
        let shared: Vec<VarId> = node_vars
            .iter()
            .copied()
            .filter(|v| acc_set.contains(v))
            .collect();
        let node_key: Vec<usize> = shared
            .iter()
            .map(|&v| node_vars.binary_search(&v).expect("shared var in node"))
            .collect();
        let acc_key: Vec<usize> = shared
            .iter()
            .map(|&v| acc_vars.iter().position(|&a| a == v).expect("shared"))
            .collect();
        let new_vars: Vec<VarId> = node_vars
            .iter()
            .copied()
            .filter(|v| !acc_set.contains(v))
            .collect();
        let new_cols: Vec<usize> = new_vars
            .iter()
            .map(|&v| node_vars.binary_search(&v).expect("own var"))
            .collect();

        // One cached index per (relation, key columns) — shared across the
        // members of a union and across repeated evaluations.
        let idx = ctx.index(node_rel, &node_key);
        let w = acc.width;
        let new_w = w + new_cols.len();
        let node_cols: Vec<&[ValueId]> = new_cols.iter().map(|&c| node_rel.col(c)).collect();
        let mut out = Vec::new();
        let mut out_rows = 0usize;

        if node_key.is_empty() {
            // No shared variables (first atom, cartesian step, or a
            // nullary atom): every binding pairs with the single group.
            let rows = idx.get(&[]);
            out.reserve(acc.n_rows * rows.len() * new_w);
            for r in 0..acc.n_rows {
                let binding = &acc.data[r * w..(r + 1) * w];
                for &rid in rows {
                    out.extend_from_slice(binding);
                    out.extend(node_cols.iter().map(|c| c[rid as usize]));
                }
            }
            out_rows = acc.n_rows * rows.len();
        } else {
            // Batched probe: gather the key run of a block of bindings,
            // resolve all groups in bulk, then copy the extensions.
            let k = node_key.len();
            let mut keys: Vec<ValueId> = Vec::with_capacity(JOIN_BLOCK * k);
            let mut hits: Vec<(u32, &[u32])> = Vec::with_capacity(JOIN_BLOCK);
            for start in (0..acc.n_rows).step_by(JOIN_BLOCK) {
                let end = (start + JOIN_BLOCK).min(acc.n_rows);
                keys.clear();
                for r in start..end {
                    keys.extend(acc_key.iter().map(|&p| acc.data[r * w + p]));
                }
                hits.clear();
                let mut total = 0usize;
                for (p, rows) in idx.probe_batch(&keys, k) {
                    if !rows.is_empty() {
                        total += rows.len();
                        hits.push((p as u32, rows));
                    }
                }
                out.reserve(total * new_w);
                for &(p, rows) in &hits {
                    let base = (start + p as usize) * w;
                    let binding = &acc.data[base..base + w];
                    for &rid in rows {
                        out.extend_from_slice(binding);
                        out.extend(node_cols.iter().map(|c| c[rid as usize]));
                    }
                }
                out_rows += total;
            }
        }
        acc = IdTable {
            width: new_w,
            n_rows: out_rows,
            data: out,
        };
        acc_vars.extend_from_slice(&new_vars);
        if acc.n_rows == 0 {
            return Ok(IdTable {
                width: head_width,
                ..IdTable::default()
            });
        }
    }

    // Project the head and deduplicate on ids, decoding at the boundary.
    let head_pos: Vec<usize> = cq
        .head()
        .iter()
        .map(|&v| acc_vars.iter().position(|&a| a == v).expect("safe head"))
        .collect();
    let mut seen: FastSet<InlineKey> = fast_set_with_capacity(acc.n_rows);
    let mut projected = IdTable {
        width: head_width,
        ..IdTable::default()
    };
    let mut key_buf: Vec<ValueId> = Vec::with_capacity(head_pos.len());
    let w = acc.width;
    for r in 0..acc.n_rows {
        key_buf.clear();
        key_buf.extend(head_pos.iter().map(|&p| acc.data[r * w + p]));
        if seen.insert(InlineKey::from_slice(&key_buf)) {
            projected.data.extend_from_slice(&key_buf);
            projected.n_rows += 1;
        }
    }
    Ok(projected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_query::parse_cq;
    use ucq_storage::Relation;

    fn inst(rels: &[(&str, Vec<(i64, i64)>)]) -> Instance {
        rels.iter()
            .map(|(n, pairs)| (n.to_string(), Relation::from_pairs(pairs.iter().copied())))
            .collect()
    }

    #[test]
    fn path_join_with_projection() {
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2), (1, 5)]), ("S", vec![(2, 3), (5, 3)])]);
        let mut got = evaluate_cq_naive(&q, &i).unwrap();
        got.sort();
        // (1,3) must appear once despite two witnesses.
        assert_eq!(got, vec![Tuple::from(&[1i64, 3][..])]);
    }

    #[test]
    fn cyclic_triangle_query() {
        let q = parse_cq("T(x, y, z) <- R(x, y), S(y, z), U(z, x)").unwrap();
        let i = inst(&[
            ("R", vec![(1, 2), (1, 9)]),
            ("S", vec![(2, 3)]),
            ("U", vec![(3, 1)]),
        ]);
        let got = evaluate_cq_naive(&q, &i).unwrap();
        assert_eq!(got, vec![Tuple::from(&[1i64, 2, 3][..])]);
    }

    #[test]
    fn cartesian_product_when_disconnected() {
        let q = parse_cq("Q(x, a) <- R(x, y), S(a, b)").unwrap();
        let i = inst(&[("R", vec![(1, 0), (2, 0)]), ("S", vec![(7, 0), (8, 0)])]);
        let got = evaluate_cq_naive(&q, &i).unwrap();
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn empty_when_relation_missing() {
        let q = parse_cq("Q(x) <- R(x, y), Z(y)").unwrap();
        let i = inst(&[("R", vec![(1, 2)])]);
        assert!(evaluate_cq_naive(&q, &i).unwrap().is_empty());
    }

    #[test]
    fn boolean_query() {
        let q = parse_cq("B() <- R(x, y)").unwrap();
        let yes = inst(&[("R", vec![(1, 2)])]);
        assert_eq!(evaluate_cq_naive(&q, &yes).unwrap(), vec![Tuple::empty()]);
        let no = inst(&[("R", vec![])]);
        assert!(evaluate_cq_naive(&q, &no).unwrap().is_empty());
    }

    #[test]
    fn blocked_join_crosses_block_boundaries() {
        // More bindings than one probe block, with key runs that repeat:
        // every x joins the shared z spine, so the block gather + bulk
        // probe must agree with the one-at-a-time reference count.
        let n = 3 * JOIN_BLOCK as i64 + 17;
        let r: Vec<(i64, i64)> = (0..n).map(|i| (i, i % 5)).collect();
        let s: Vec<(i64, i64)> = (0..5).flat_map(|z| [(z, 100 + z), (z, 200 + z)]).collect();
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let i = inst(&[("R", r), ("S", s)]);
        let got = evaluate_cq_naive(&q, &i).unwrap();
        assert_eq!(got.len(), 2 * n as usize);
    }

    #[test]
    fn agrees_with_cdy_on_free_connex() {
        let q = parse_cq("Q(x, z, y) <- R(x, z), S(z, y)").unwrap();
        let i = inst(&[
            ("R", vec![(1, 2), (5, 6), (7, 2)]),
            ("S", vec![(2, 3), (2, 4), (6, 0)]),
        ]);
        let mut naive = evaluate_cq_naive(&q, &i).unwrap();
        naive.sort();
        let eng = crate::cdy::CdyEngine::for_query(&q, &i).unwrap();
        let mut cdy = eng.iter().collect_all();
        cdy.sort();
        assert_eq!(naive, cdy);
    }

    #[test]
    fn shared_context_caches_join_indexes() {
        let ctx = CtxView::new();
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(2, 3)])]);
        let a = evaluate_cq_naive_ids_in(&q, &i, &ctx).unwrap().decode(&ctx);
        let builds = ctx.stats().index_builds;
        let b = evaluate_cq_naive_ids_in(&q, &i, &ctx).unwrap().decode(&ctx);
        assert_eq!(a, b);
        assert_eq!(
            ctx.stats().index_builds,
            builds,
            "second run reuses every cached index"
        );
        assert!(ctx.stats().index_hits > 0);
    }
}

//! The Yannakakis full reducer, as a liveness pass over shared relations.
//!
//! Two sweeps over a join tree — leaves-to-root, then root-to-leaves —
//! remove every *dangling* tuple: afterwards each remaining tuple of each
//! node participates in at least one result of the full join (Yannakakis
//! 1981 \[20\]). This is the linear preprocessing phase of the CDY algorithm.
//!
//! Node relations are never mutated. Each non-root node brings **one**
//! [`HashIndex`] on its separator with its parent — hashed once, by whoever
//! owns it (the context's index cache for atom nodes) — and
//! [`live_rows`] turns the two semijoin sweeps into scans over that index:
//!
//! * bottom-up, a child group is *alive* iff it holds a live row; every
//!   live parent row probes the child index once (the group id is kept per
//!   edge) and dies if its group is absent or dead;
//! * top-down, a child group is *supported* iff a surviving parent row
//!   remembered it; every row of an unsupported group dies.
//!
//! One hash probe per (parent row, child edge) is all the hashing there is.

use crate::noderel::NodeRel;
use std::borrow::Borrow;
use std::sync::Arc;
use ucq_hypergraph::JoinTree;
use ucq_storage::{HashIndex, ValueId};

/// The probe memo of a parent row with no (live) group on an edge.
const NO_GROUP: u32 = u32::MAX;

/// The reducer kernel: per node, which physical rows take part in at least
/// one result of the full join. `rels[i]` carries the data of tree node
/// `i` (rows already tombstoned start out dead) and `sep_index[i]`, for
/// every non-root `i`, indexes `rels[i]` on its separator with its parent
/// (columns in ascending variable order, as [`NodeRel::cols_of`] lists
/// them).
pub fn live_rows<I: Borrow<HashIndex>>(
    tree: &JoinTree,
    rels: &[NodeRel],
    sep_index: &[Option<I>],
) -> Vec<Vec<bool>> {
    assert_eq!(tree.len(), rels.len());
    assert_eq!(tree.len(), sep_index.len());
    let order = tree.bfs_order();
    let mut live: Vec<Vec<bool>> = rels
        .iter()
        .map(|nr| (0..nr.rel.len()).map(|r| nr.rel.is_live(r)).collect())
        .collect();
    // Per non-root node: the group of its index each parent row probes.
    let mut parent_group: Vec<Vec<u32>> = vec![Vec::new(); rels.len()];
    let edge = |n: usize| {
        let p = tree.parent(n)?;
        let idx = sep_index[n].as_ref().expect("non-root nodes are indexed");
        Some((p, idx.borrow()))
    };

    // Bottom-up: parent ⋉ child.
    for &n in order.iter().rev() {
        let Some((p, idx)) = edge(n) else { continue };
        // Chaos hook (inert outside `--cfg ucq_fault_inject`): one visit
        // per semijoin, the reducer's probe site.
        ucq_storage::faults::on_probe();
        let alive: Vec<bool> = (0..idx.n_keys() as u32)
            .map(|g| idx.group(g).iter().any(|&r| live[n][r as usize]))
            .collect();
        let key_cols: Vec<&[ValueId]> = rels[p]
            .cols_of(tree.separator(n))
            .iter()
            .map(|&c| rels[p].rel.col(c))
            .collect();
        let mut groups = vec![NO_GROUP; live[p].len()];
        let mut key: Vec<ValueId> = Vec::with_capacity(key_cols.len());
        for (r, alive_row) in live[p].iter_mut().enumerate() {
            if !*alive_row {
                continue;
            }
            key.clear();
            key.extend(key_cols.iter().map(|c| c[r]));
            match idx.gid_of(&key) {
                Some(g) if alive[g as usize] => groups[r] = g,
                _ => *alive_row = false,
            }
        }
        parent_group[n] = groups;
    }
    // Top-down: child ⋉ parent.
    for &n in order.iter() {
        let Some((p, idx)) = edge(n) else { continue };
        let mut supported = vec![false; idx.n_keys()];
        for (r, &g) in parent_group[n].iter().enumerate() {
            if live[p][r] {
                supported[g as usize] = true;
            }
        }
        for (g, _) in supported.iter().enumerate().filter(|(_, &s)| !s) {
            for &r in idx.group(g as u32) {
                live[n][r as usize] = false;
            }
        }
    }
    live
}

/// Runs the full reducer in place: [`live_rows`] over separator indexes
/// built here, then one compaction per node that lost rows. `rels[i]`
/// carries the data of tree node `i`. Returns `false` iff some node ended
/// up empty (the query has no answers).
pub fn full_reduce(tree: &JoinTree, rels: &mut [NodeRel]) -> bool {
    let sep_index: Vec<Option<HashIndex>> = (0..rels.len())
        .map(|n| {
            let cols = rels[n].cols_of(tree.separator(n));
            tree.parent(n)
                .map(|_| HashIndex::build(&rels[n].rel, &cols))
        })
        .collect();
    let live = live_rows(tree, rels, &sep_index);
    for (nr, live) in rels.iter_mut().zip(&live) {
        if live.contains(&false) {
            nr.rel = Arc::new(nr.rel.filter_rows(live));
        }
    }
    rels.iter().all(|r| !r.rel.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ucq_hypergraph::{join_tree, VSet};
    use ucq_query::parse_cq;
    use ucq_storage::{CtxView, Relation, Value};

    fn iv(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    fn decoded_row(nr: &NodeRel, ctx: &CtxView, row: usize) -> Vec<Value> {
        (0..nr.rel.arity())
            .map(|c| ctx.decode(nr.rel.at(row, c)))
            .collect()
    }

    /// Builds node relations for a parsed path query over given data.
    fn setup(
        text: &str,
        data: &[Relation],
        ctx: &CtxView,
    ) -> (ucq_hypergraph::JoinTree, Vec<NodeRel>) {
        let q = parse_cq(text).unwrap();
        let tree = join_tree(&q.hypergraph()).unwrap();
        let shared: Vec<Arc<Relation>> = data.iter().cloned().map(Arc::new).collect();
        let rels: Vec<NodeRel> = tree
            .nodes()
            .iter()
            .map(|n| {
                let atom_idx = n.atom.expect("plain join tree");
                NodeRel::from_atom(&q.atoms()[atom_idx], &shared[atom_idx], ctx).unwrap()
            })
            .collect();
        (tree, rels)
    }

    #[test]
    fn dangling_tuples_removed() {
        // R(x,z) ⋈ S(z,y): R's (5,99) has no partner and must go.
        let ctx = CtxView::new();
        let (tree, mut rels) = setup(
            "Q(x, y) <- R(x, z), S(z, y)",
            &[
                Relation::from_pairs([(1, 2), (5, 99)]),
                Relation::from_pairs([(2, 3)]),
            ],
            &ctx,
        );
        assert!(full_reduce(&tree, &mut rels));
        let r_node = tree.nodes().iter().position(|n| n.atom == Some(0)).unwrap();
        assert_eq!(rels[r_node].rel.len(), 1);
        assert_eq!(decoded_row(&rels[r_node], &ctx, 0), iv(&[1, 2]));
    }

    #[test]
    fn unsatisfiable_join_reports_false() {
        let ctx = CtxView::new();
        let (tree, mut rels) = setup(
            "Q(x, y) <- R(x, z), S(z, y)",
            &[
                Relation::from_pairs([(1, 2)]),
                Relation::from_pairs([(7, 3)]),
            ],
            &ctx,
        );
        assert!(!full_reduce(&tree, &mut rels));
    }

    #[test]
    fn three_hop_path_consistency() {
        // R(x,a) ⋈ S(a,b) ⋈ T(b,y); only the 1-2-3-4 chain survives.
        let ctx = CtxView::new();
        let (tree, mut rels) = setup(
            "Q(x, y) <- R(x, a), S(a, b), T(b, y)",
            &[
                Relation::from_pairs([(1, 2), (1, 9)]),
                Relation::from_pairs([(2, 3), (8, 8)]),
                Relation::from_pairs([(3, 4)]),
            ],
            &ctx,
        );
        assert!(full_reduce(&tree, &mut rels));
        for nr in &rels {
            assert_eq!(nr.rel.len(), 1, "every node reduced to the chain");
        }
    }

    #[test]
    fn global_consistency_after_both_passes() {
        // Star join: middle node must agree with both leaves, and leaves
        // must be trimmed against the middle *after* it was trimmed.
        let ctx = CtxView::new();
        let (tree, mut rels) = setup(
            "Q(x, y, z) <- M(x, y, z), A(x), B(y)",
            &[
                Relation::from_rows(
                    3,
                    [iv(&[1, 2, 3]), iv(&[1, 5, 6]), iv(&[9, 2, 7])]
                        .iter()
                        .map(|r| r.as_slice()),
                ),
                Relation::from_rows(1, [iv(&[1])].iter().map(|r| r.as_slice())),
                Relation::from_rows(1, [iv(&[2]), iv(&[5])].iter().map(|r| r.as_slice())),
            ],
            &ctx,
        );
        assert!(full_reduce(&tree, &mut rels));
        // Surviving M rows: (1,2,3) and (1,5,6).
        let m = tree.nodes().iter().position(|n| n.atom == Some(0)).unwrap();
        assert_eq!(rels[m].rel.len(), 2);
        // B keeps both 2 and 5; A keeps only 1.
        let a = tree.nodes().iter().position(|n| n.atom == Some(1)).unwrap();
        assert_eq!(rels[a].rel.len(), 1);
    }

    #[test]
    fn separator_is_intersection() {
        let ctx = CtxView::new();
        let (tree, _) = setup(
            "Q(x, y) <- R(x, z), S(z, y)",
            &[Relation::new(2), Relation::new(2)],
            &ctx,
        );
        for n in 0..tree.len() {
            if let Some(p) = tree.parent(n) {
                let sep = tree.separator(n);
                assert_eq!(sep, tree.nodes()[n].vars.inter(tree.nodes()[p].vars));
                assert_eq!(sep, VSet::singleton(2)); // z
            }
        }
    }
}

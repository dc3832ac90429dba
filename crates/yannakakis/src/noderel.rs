//! Node relations: interned relations whose columns are aligned with a
//! sorted list of query variables.
//!
//! Join-tree nodes carry their data in this normalized form: one column per
//! *distinct* variable, columns sorted by variable id, values interned to
//! [`ValueId`](ucq_storage::ValueId)s. Atoms with repeated variables
//! (`R(x,x)`) are normalized by
//! filtering rows whose repeated positions disagree and then dropping the
//! duplicate columns.
//!
//! Normalization is cached in the context view: two atoms reading the
//! same stored relation with the same *argument shape* (the
//! [`atom_signature`]) — even in different member CQs of a union — share
//! one normalized [`IdRel`]. A [`NodeRel`] holds that cached relation by
//! `Arc` and never mutates it: the reducer ([`crate::reducer`]) reports
//! liveness beside the data, so the separator indexes built over a node
//! relation can be cached and shared too.

use std::collections::HashSet;
use std::sync::Arc;
use ucq_hypergraph::VSet;
use ucq_query::{Atom, Cq, VarId};
use ucq_storage::{CtxView, IdRel, Relation};

/// The normalization signature of an atom's argument list: for each
/// position, the rank of its variable among the atom's sorted distinct
/// variables. Two atoms with equal signatures over the same relation
/// normalize to the *same* node relation — `R(x, z)` and `R(a, b)` share,
/// `R(x, x)` and `R(z, x)` do not.
pub fn atom_signature(args: &[VarId]) -> Vec<u32> {
    let mut sorted: Vec<VarId> = args.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    args.iter()
        .map(|v| sorted.binary_search(v).expect("present") as u32)
        .collect()
}

/// The `(relation, atom shape)` pairs that more than one atom of a union
/// reads: the normalizations — and so the separator indexes built over
/// them — that its members can share through one context.
#[derive(Clone, Debug, Default)]
pub struct SharedShapes(HashSet<(String, Vec<u32>)>);

impl SharedShapes {
    /// The shapes shared among the atoms of `cqs`.
    pub fn of<'a>(cqs: impl IntoIterator<Item = &'a Cq>) -> SharedShapes {
        let mut seen = HashSet::new();
        let mut shared = HashSet::new();
        for atom in cqs.into_iter().flat_map(|cq| cq.atoms()) {
            let shape = (atom.rel.clone(), atom_signature(&atom.args));
            if !seen.insert(shape.clone()) {
                shared.insert(shape);
            }
        }
        SharedShapes(shared)
    }

    /// Whether another atom of the union reads `atom`'s relation with
    /// `atom`'s shape.
    pub fn contains(&self, atom: &Atom) -> bool {
        !self.0.is_empty()
            && self
                .0
                .contains(&(atom.rel.clone(), atom_signature(&atom.args)))
    }
}

/// A relation with named (variable-id) columns in sorted order, interned.
#[derive(Clone, Debug)]
pub struct NodeRel {
    /// Distinct variables, sorted ascending; `rel` has one column per entry.
    pub vars: Vec<VarId>,
    /// The interned columnar data, column `i` holding ids of `vars[i]` —
    /// shared with the context cache for atom nodes.
    pub rel: Arc<IdRel>,
}

impl NodeRel {
    /// The sorted distinct variables of an atom.
    fn distinct_vars(atom: &Atom) -> Vec<VarId> {
        let mut vars: Vec<VarId> = atom.args.clone();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Checks the stored arity against the atom.
    fn check_arity(atom: &Atom, stored_arity: usize) -> Result<(), String> {
        if stored_arity != atom.args.len() {
            return Err(format!(
                "relation {} has arity {}, atom expects {}",
                atom.rel,
                stored_arity,
                atom.args.len()
            ));
        }
        Ok(())
    }

    /// The cached normalized relation for `atom` over `stored` — shared
    /// (no copy) with every other atom of equal [`atom_signature`] reading
    /// the same relation through the same context.
    pub fn derived(
        atom: &Atom,
        stored: &Arc<Relation>,
        ctx: &CtxView,
    ) -> Result<(Vec<VarId>, Arc<IdRel>), String> {
        NodeRel::check_arity(atom, stored.arity())?;
        let sig = atom_signature(&atom.args);
        let rel = ctx.normalized_rel(stored, &sig);
        Ok((NodeRel::distinct_vars(atom), rel))
    }

    /// The node relation of an atom over its stored relation: the cached
    /// normalization itself ([`NodeRel::derived`]), shared, not copied.
    pub fn from_atom(
        atom: &Atom,
        stored: &Arc<Relation>,
        ctx: &CtxView,
    ) -> Result<NodeRel, String> {
        let (vars, rel) = NodeRel::derived(atom, stored, ctx)?;
        Ok(NodeRel { vars, rel })
    }

    /// An empty node relation for an atom whose stored relation is missing
    /// (the paper's reductions "leave relations empty").
    pub fn empty(atom: &Atom) -> NodeRel {
        let vars = NodeRel::distinct_vars(atom);
        NodeRel {
            rel: Arc::new(IdRel::new(vars.len())),
            vars,
        }
    }

    /// The variable set.
    pub fn var_set(&self) -> VSet {
        self.vars.iter().copied().collect()
    }

    /// Column position of variable `v`, if present.
    pub fn col_of(&self, v: VarId) -> Option<usize> {
        self.vars.binary_search(&v).ok()
    }

    /// Column positions of each variable in `vs` (which must all be
    /// present), in `vs` iteration order (ascending).
    pub fn cols_of(&self, vs: VSet) -> Vec<usize> {
        vs.iter()
            .map(|v| self.col_of(v).expect("variable not in node"))
            .collect()
    }

    /// Projects onto a subset of this node's variables (deduplicating).
    pub fn project(&self, vs: VSet) -> NodeRel {
        let cols = self.cols_of(vs);
        NodeRel {
            vars: vs.iter().collect(),
            rel: Arc::new(self.rel.project_dedup(&cols)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::full_reduce;
    use ucq_hypergraph::{JoinTree, JtNode};
    use ucq_query::parse_cq;
    use ucq_storage::Value;

    fn shared(rel: Relation) -> Arc<Relation> {
        Arc::new(rel)
    }

    fn decoded_row(nr: &NodeRel, ctx: &CtxView, row: usize) -> Vec<Value> {
        (0..nr.rel.arity())
            .map(|c| ctx.decode(nr.rel.at(row, c)))
            .collect()
    }

    #[test]
    fn signature_captures_shape_not_names() {
        let q = parse_cq("Q(x, y, z) <- R(x, z), R(y, z), R(x, x)").unwrap();
        let sigs: Vec<Vec<u32>> = q.atoms().iter().map(|a| atom_signature(&a.args)).collect();
        assert_eq!(sigs[0], sigs[1], "R(x,z) and R(y,z) share a shape");
        assert_ne!(sigs[0], sigs[2], "R(x,x) has a different shape");
    }

    #[test]
    fn shared_shapes_count_across_members() {
        let q1 = parse_cq("Q1(x, y, z) <- A(x, y), B(y, z)").unwrap();
        let q2 = parse_cq("Q2(a, b, c) <- A(a, b), B(c, b), C(b, b)").unwrap();
        let shared = SharedShapes::of([&q1, &q2]);
        assert!(shared.contains(&q1.atoms()[0]), "A(x, y) and A(a, b)");
        assert!(
            !shared.contains(&q1.atoms()[1]),
            "B(c, b) has another shape"
        );
        assert!(!shared.contains(&q2.atoms()[2]));
        assert!(!SharedShapes::default().contains(&q1.atoms()[0]));
    }

    #[test]
    fn normalization_sorts_columns() {
        // Atom R(y, x): x=0, y=1; sorted vars = [0, 1]; columns must be
        // swapped relative to storage.
        let q = parse_cq("Q(x, y) <- R(y, x)").unwrap();
        let ctx = CtxView::new();
        let stored = shared(Relation::from_pairs([(10, 20)])); // (y, x)
        let nr = NodeRel::from_atom(&q.atoms()[0], &stored, &ctx).unwrap();
        assert_eq!(nr.vars, vec![0, 1]);
        assert_eq!(
            decoded_row(&nr, &ctx, 0),
            vec![Value::Int(20), Value::Int(10)]
        );
    }

    #[test]
    fn repeated_variable_filters_rows() {
        let q = parse_cq("Q(x) <- R(x, x)").unwrap();
        let ctx = CtxView::new();
        let stored = shared(Relation::from_pairs([(1, 1), (1, 2), (3, 3)]));
        let nr = NodeRel::from_atom(&q.atoms()[0], &stored, &ctx).unwrap();
        assert_eq!(nr.vars.len(), 1);
        assert_eq!(nr.rel.len(), 2);
        let kept: Vec<Vec<Value>> = (0..2).map(|r| decoded_row(&nr, &ctx, r)).collect();
        assert!(kept.contains(&vec![Value::Int(1)]));
        assert!(kept.contains(&vec![Value::Int(3)]));
    }

    #[test]
    fn arity_mismatch_is_error() {
        let q = parse_cq("Q(x) <- R(x, y)").unwrap();
        let ctx = CtxView::new();
        assert!(NodeRel::from_atom(&q.atoms()[0], &shared(Relation::new(3)), &ctx).is_err());
    }

    #[test]
    fn duplicate_rows_dropped() {
        let q = parse_cq("Q(x, y) <- R(x, y)").unwrap();
        let ctx = CtxView::new();
        let stored = shared(Relation::from_pairs([(1, 2), (1, 2)]));
        let nr = NodeRel::from_atom(&q.atoms()[0], &stored, &ctx).unwrap();
        assert_eq!(nr.rel.len(), 1);
    }

    #[test]
    fn same_shape_atoms_share_the_cached_relation() {
        let q = parse_cq("Q(x, y, z) <- R(x, y), R(y, z)").unwrap();
        let ctx = CtxView::new();
        let stored = shared(Relation::from_pairs([(1, 2), (2, 3)]));
        let (_, a) = NodeRel::derived(&q.atoms()[0], &stored, &ctx).unwrap();
        let (_, b) = NodeRel::derived(&q.atoms()[1], &stored, &ctx).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one normalization, shared");
        assert_eq!(ctx.stats().derived_builds, 1);
        assert_eq!(ctx.stats().derived_hits, 1);
    }

    /// The two-node tree `child → parent` whose one edge is the semijoin
    /// under test.
    fn edge(parent: &NodeRel, child: &NodeRel) -> JoinTree {
        let node = |nr: &NodeRel, atom| JtNode {
            vars: nr.var_set(),
            atom: Some(atom),
        };
        JoinTree::new(vec![node(parent, 0), node(child, 1)], vec![None, Some(0)])
    }

    #[test]
    fn semijoin_filters() {
        let q = parse_cq("Q(x, y, z) <- R(x, y), S(y, z)").unwrap();
        let ctx = CtxView::new();
        let left = NodeRel::from_atom(
            &q.atoms()[0],
            &shared(Relation::from_pairs([(1, 2), (3, 4)])),
            &ctx,
        )
        .unwrap();
        let right =
            NodeRel::from_atom(&q.atoms()[1], &shared(Relation::from_pairs([(2, 9)])), &ctx)
                .unwrap();
        let tree = edge(&left, &right); // separator: y = var 1
        let mut rels = [left, right];
        assert!(full_reduce(&tree, &mut rels));
        assert_eq!(rels[0].rel.len(), 1);
        assert_eq!(
            decoded_row(&rels[0], &ctx, 0),
            vec![Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn semijoin_empty_separator_checks_nonemptiness() {
        let q = parse_cq("Q(x, z) <- R(x), S(z)").unwrap();
        let ctx = CtxView::new();
        let one_row = {
            let mut r = Relation::new(1);
            r.push_row(&[Value::Int(1)]);
            shared(r)
        };
        let left = NodeRel::from_atom(&q.atoms()[0], &one_row, &ctx).unwrap();
        let right_empty =
            NodeRel::from_atom(&q.atoms()[1], &shared(Relation::new(1)), &ctx).unwrap();
        let tree = edge(&left, &right_empty);
        let mut rels = [left, right_empty];
        assert!(!full_reduce(&tree, &mut rels));
        assert!(rels[0].rel.is_empty());
        // A non-empty partner across the empty separator keeps everything.
        let left = NodeRel::from_atom(&q.atoms()[0], &one_row, &ctx).unwrap();
        let right = NodeRel::from_atom(&q.atoms()[1], &one_row, &ctx).unwrap();
        let mut rels = [left, right];
        assert!(full_reduce(&tree, &mut rels));
        assert_eq!((rels[0].rel.len(), rels[1].rel.len()), (1, 1));
    }

    #[test]
    fn projection() {
        let q = parse_cq("Q(x, y) <- R(x, y)").unwrap();
        let ctx = CtxView::new();
        let nr = NodeRel::from_atom(
            &q.atoms()[0],
            &shared(Relation::from_pairs([(1, 2), (1, 3)])),
            &ctx,
        )
        .unwrap();
        let p = nr.project(VSet::singleton(0));
        assert_eq!(p.vars, vec![0]);
        assert_eq!(p.rel.len(), 1);
    }

    #[test]
    fn empty_node_for_missing_relation() {
        let q = parse_cq("Q(x, y) <- R(x, y, x)").unwrap();
        let nr = NodeRel::empty(&q.atoms()[0]);
        assert_eq!(nr.vars.len(), 2);
        assert!(nr.rel.is_empty());
    }
}

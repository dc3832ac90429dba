//! S-connexity tests and the ext-S-connex tree construction.
//!
//! A CQ is `S`-connex when its hypergraph has an ext-S-connex tree: a join
//! tree of an inclusive extension with a connected subtree covering exactly
//! `S` (paper §2, Figure 1). Equivalently — Bagan et al. \[2\],
//! Brault-Baron \[5\] — `H` and `(V, E ∪ {S})` are both acyclic. With
//! `S = free(Q)` this is free-connexity.
//!
//! The constructive algorithm here runs GYO *restricted to eliminating only
//! vertices outside `S`* (phase 1). On success every surviving (shrunken)
//! edge is contained in `S`, their union is exactly `S ∩ covered(H)`, and an
//! ordinary GYO pass over the survivors (phase 2) arranges them into the
//! connex subtree `T'`. Each original atom hangs below the node it was
//! absorbed into. Both characterizations are computed and asserted equal on
//! every call — a live consistency check of the theorem this crate encodes.

use crate::gyo::{gyo, gyo_restricted, is_acyclic};
use crate::hypergraph::Hypergraph;
use crate::join_tree::{ConnexTree, JoinTree, JtNode};
use crate::vset::VSet;

/// Builds a plain join tree of `h` (no extension nodes), or `None` if `h` is
/// cyclic or has no edges.
pub fn join_tree(h: &Hypergraph) -> Option<JoinTree> {
    if h.n_edges() == 0 {
        return None;
    }
    let run = gyo(h);
    if run.alive.len() != 1 {
        return None;
    }
    let nodes: Vec<JtNode> = h
        .edges()
        .iter()
        .enumerate()
        .map(|(i, &e)| JtNode {
            vars: e,
            atom: Some(i),
        })
        .collect();
    Some(JoinTree::new(nodes, run.absorbed_into))
}

/// Whether `h` is `S`-connex: both `h` and `h + {S}` are acyclic.
///
/// Note that `S` vertices not covered by any edge make the query malformed
/// (every query variable occurs in an atom); we require `S ⊆ covered(h)`.
pub fn is_s_connex(h: &Hypergraph, s: VSet) -> bool {
    s.is_subset(h.covered_vertices()) && is_acyclic(h) && is_acyclic(&h.with_edges(&[s]))
}

/// Constructs an ext-S-connex tree for `h`, or `None` if `h` is not
/// `S`-connex. The returned tree is rooted inside the connex subtree.
pub fn ext_s_connex_tree(h: &Hypergraph, s: VSet) -> Option<ConnexTree> {
    if h.n_edges() == 0 || !s.is_subset(h.covered_vertices()) {
        return None;
    }

    // Phase 1: restricted GYO.
    let p1 = gyo_restricted(h, s);
    let residual_ok = p1.residual_vertices().is_subset(s);

    // Phase 2: arrange the survivors into a tree.
    let residual_edges: Vec<VSet> = p1.alive.iter().map(|&i| p1.current[i]).collect();
    let p2 = if residual_ok {
        Some(gyo(&Hypergraph::new(h.n_vertices(), residual_edges)))
    } else {
        None
    };
    let constructive_ok = residual_ok && p2.as_ref().map(|r| r.alive.len() == 1).unwrap_or(false);

    // Live check of the classical equivalence (Bagan et al. / Brault-Baron).
    let direct_ok = is_s_connex(h, s);
    assert_eq!(
        constructive_ok, direct_ok,
        "S-connex characterizations disagree for S={s} on {h:?}"
    );
    if !constructive_ok {
        return None;
    }
    let p2 = p2.expect("checked above");

    // Assemble nodes. Every original edge gets a node with its full variable
    // set; every phase-1 survivor additionally gets a connex node with its
    // shrunken variable set (merged with the atom node when nothing shrank).
    let n_edges = h.n_edges();
    let mut nodes: Vec<JtNode> = Vec::with_capacity(n_edges + p1.alive.len());
    let mut atom_node: Vec<usize> = Vec::with_capacity(n_edges);
    for (i, &e) in h.edges().iter().enumerate() {
        atom_node.push(i);
        nodes.push(JtNode {
            vars: e,
            atom: Some(i),
        });
    }
    let mut connex_node: Vec<Option<usize>> = vec![None; n_edges];
    let mut connex_flag: Vec<bool> = vec![false; n_edges];
    for &i in &p1.alive {
        if p1.current[i] == h.edges()[i] {
            // Nothing shrank: the atom node itself joins T'.
            connex_node[i] = Some(atom_node[i]);
            connex_flag[atom_node[i]] = true;
        } else {
            connex_node[i] = Some(nodes.len());
            connex_flag.push(true);
            nodes.push(JtNode {
                vars: p1.current[i],
                atom: None,
            });
        }
    }

    // Parent links.
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    for i in 0..n_edges {
        if let Some(j) = p1.absorbed_into[i] {
            parent[atom_node[i]] = Some(atom_node[j]);
        } else if connex_node[i] != Some(atom_node[i]) {
            // Survivor with a separate connex node: hang the atom below it.
            parent[atom_node[i]] = connex_node[i];
        }
    }
    for (k, &i) in p1.alive.iter().enumerate() {
        if let Some(k2) = p2.absorbed_into[k] {
            let j = p1.alive[k2];
            parent[connex_node[i].unwrap()] = connex_node[j];
        }
    }

    let tree = JoinTree::new(nodes, parent);
    let ct = ConnexTree {
        tree,
        connex: connex_flag,
        s: s.inter(h.covered_vertices()),
    };
    debug_assert_eq!(ct.validate(h), Ok(()));
    Some(ct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hg(n: u32, edges: &[&[u32]]) -> Hypergraph {
        Hypergraph::new(
            n,
            edges.iter().map(|e| e.iter().copied().collect()).collect(),
        )
    }

    fn vs(vs: &[u32]) -> VSet {
        vs.iter().copied().collect()
    }

    #[test]
    fn join_tree_of_path() {
        let h = hg(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let t = join_tree(&h).unwrap();
        assert!(t.has_running_intersection());
        assert!(t.is_inclusive_extension_of(&h));
    }

    #[test]
    fn join_tree_rejects_cycle() {
        assert!(join_tree(&hg(3, &[&[0, 1], &[1, 2], &[2, 0]])).is_none());
    }

    #[test]
    fn figure1_construction() {
        // H = {{x,y},{w,y,z},{v,w}} with x=0,y=1,z=2,w=3,v=4; S={x,y,z}.
        let h = hg(5, &[&[0, 1], &[3, 1, 2], &[4, 3]]);
        let s = vs(&[0, 1, 2]);
        let ct = ext_s_connex_tree(&h, s).expect("Figure 1 is S-connex");
        ct.validate(&h).unwrap();
        // T' must cover exactly S.
        let cover = ct
            .connex_nodes()
            .iter()
            .fold(VSet::EMPTY, |a, &i| a.union(ct.tree.nodes()[i].vars));
        assert_eq!(cover, s);
    }

    #[test]
    fn path_query_free_connex_cases() {
        // Body R(x,z), S(z,y): the matmul query Π(x,y) is NOT {x,y}-connex,
        // but IS {x,z}-connex and {x,z,y}-connex.
        let h = hg(3, &[&[0, 2], &[2, 1]]);
        assert!(!is_s_connex(&h, vs(&[0, 1])));
        assert!(is_s_connex(&h, vs(&[0, 2])));
        assert!(is_s_connex(&h, vs(&[0, 1, 2])));
        assert!(ext_s_connex_tree(&h, vs(&[0, 1])).is_none());
        let ct = ext_s_connex_tree(&h, vs(&[0, 2])).unwrap();
        ct.validate(&h).unwrap();
    }

    #[test]
    fn empty_s_gives_boolean_tree() {
        let h = hg(3, &[&[0, 1], &[1, 2]]);
        let ct = ext_s_connex_tree(&h, VSet::EMPTY).unwrap();
        ct.validate(&h).unwrap();
        // The connex subtree is a single empty node.
        let cn = ct.connex_nodes();
        assert_eq!(cn.len(), 1);
        assert!(ct.tree.nodes()[cn[0]].vars.is_empty());
    }

    #[test]
    fn full_s_merges_all_nodes() {
        let h = hg(3, &[&[0, 1], &[1, 2]]);
        let ct = ext_s_connex_tree(&h, vs(&[0, 1, 2])).unwrap();
        ct.validate(&h).unwrap();
        // Every atom node is itself connex; no extension nodes needed.
        assert_eq!(ct.tree.len(), 2);
        assert!(ct.connex.iter().all(|&c| c));
    }

    #[test]
    fn cyclic_is_never_connex() {
        let tri = hg(3, &[&[0, 1], &[1, 2], &[2, 0]]);
        assert!(!is_s_connex(&tri, vs(&[0, 1, 2])));
        assert!(ext_s_connex_tree(&tri, vs(&[0, 1, 2])).is_none());
        assert!(ext_s_connex_tree(&tri, VSet::EMPTY).is_none());
    }

    #[test]
    fn example2_q1_not_free_connex_but_extension_helps() {
        // Q1(x,y,w) <- R1(x,z),R2(z,y),R3(y,w); x=0,y=1,w=2,z=3.
        let h = hg(4, &[&[0, 3], &[3, 1], &[1, 2]]);
        let free = vs(&[0, 1, 2]);
        assert!(!is_s_connex(&h, free));
        // Adding the provided atom R'(x,z,y) makes it free-connex (Fig. 2).
        let h2 = h.with_edges(&[vs(&[0, 3, 1])]);
        assert!(is_s_connex(&h2, free));
        let ct = ext_s_connex_tree(&h2, free).unwrap();
        ct.validate(&h2).unwrap();
    }

    #[test]
    fn disconnected_hypergraph_connex() {
        // Two disjoint edges; S spans both components.
        let h = hg(4, &[&[0, 1], &[2, 3]]);
        let s = vs(&[0, 2]);
        let ct = ext_s_connex_tree(&h, s).unwrap();
        ct.validate(&h).unwrap();
    }

    #[test]
    fn s_with_uncovered_vertex_rejected() {
        let h = hg(4, &[&[0, 1]]);
        assert!(!is_s_connex(&h, vs(&[0, 3])));
        assert!(ext_s_connex_tree(&h, vs(&[0, 3])).is_none());
    }
}

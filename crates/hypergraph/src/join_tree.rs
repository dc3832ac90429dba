//! Join trees and their validation.
//!
//! A join tree of a hypergraph has the hyperedges as nodes and satisfies the
//! *running intersection property*: for every vertex, the nodes containing it
//! form a connected subtree. We represent trees with parent pointers (one
//! root), which matches how the Yannakakis passes traverse them.

use crate::hypergraph::Hypergraph;
use crate::vset::VSet;

/// A node of a [`JoinTree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JtNode {
    /// Variables covered by this node.
    pub vars: VSet,
    /// Index of the original atom/edge this node carries, if any. Nodes with
    /// `atom == None` are *extension* nodes (subsets of an original edge)
    /// introduced by the ext-S-connex construction.
    pub atom: Option<usize>,
}

/// A rooted join tree.
#[derive(Clone, Debug)]
pub struct JoinTree {
    nodes: Vec<JtNode>,
    /// `parent[i] = Some(p)` for all non-root nodes; exactly one root.
    parent: Vec<Option<usize>>,
    root: usize,
}

impl JoinTree {
    /// Builds a tree from nodes and parent links. Panics if the links do not
    /// form a single tree rooted at the unique parentless node.
    pub fn new(nodes: Vec<JtNode>, parent: Vec<Option<usize>>) -> JoinTree {
        assert_eq!(nodes.len(), parent.len());
        assert!(!nodes.is_empty(), "a join tree needs at least one node");
        let roots: Vec<usize> = parent
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_none().then_some(i))
            .collect();
        assert_eq!(roots.len(), 1, "expected exactly one root, got {roots:?}");
        let root = roots[0];
        let tree = JoinTree {
            nodes,
            parent,
            root,
        };
        // Reject cycles / unreachable nodes.
        assert_eq!(
            tree.bfs_order().len(),
            tree.nodes.len(),
            "parent links must form a single connected tree"
        );
        tree
    }

    /// The nodes in index order.
    pub fn nodes(&self) -> &[JtNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: a join tree has at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The parent of `i`, if `i` is not the root.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// The variables shared between `i` and its parent (the semijoin key).
    /// Empty for the root.
    pub fn separator(&self, i: usize) -> VSet {
        match self.parent[i] {
            Some(p) => self.nodes[i].vars.inter(self.nodes[p].vars),
            None => VSet::EMPTY,
        }
    }

    /// The same tree rooted at `new_root`: the parent links on the path from
    /// `new_root` up to the old root are reversed. Edges, and so separators,
    /// stay what they were.
    pub fn rerooted(&self, new_root: usize) -> JoinTree {
        let mut parent = self.parent.clone();
        let mut below = None;
        let mut at = Some(new_root);
        while let Some(n) = at {
            at = std::mem::replace(&mut parent[n], below);
            below = Some(n);
        }
        JoinTree {
            nodes: self.nodes.clone(),
            parent,
            root: new_root,
        }
    }

    /// Children lists for every node.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.nodes.len()];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                ch[*p].push(i);
            }
        }
        ch
    }

    /// Nodes in BFS order from the root (parents before children).
    pub fn bfs_order(&self) -> Vec<usize> {
        let ch = self.children();
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut queue = std::collections::VecDeque::from([self.root]);
        while let Some(n) = queue.pop_front() {
            order.push(n);
            queue.extend(ch[n].iter().copied());
        }
        order
    }

    /// The union of all node variable sets.
    pub fn all_vars(&self) -> VSet {
        self.nodes
            .iter()
            .fold(VSet::EMPTY, |acc, n| acc.union(n.vars))
    }

    /// Checks the running intersection property: for every vertex `v`, the
    /// nodes containing `v` induce a connected subtree.
    pub fn has_running_intersection(&self) -> bool {
        for v in self.all_vars().iter() {
            let holders: Vec<usize> = (0..self.nodes.len())
                .filter(|&i| self.nodes[i].vars.contains(v))
                .collect();
            if holders.len() <= 1 {
                continue;
            }
            // Walk up from each holder; the node where the walk first meets
            // an already-visited holder region must itself contain v for the
            // region to be connected. Simpler: check that the subgraph
            // induced by holders is connected via parent links.
            let holder_set: std::collections::HashSet<usize> = holders.iter().copied().collect();
            let mut seen = std::collections::HashSet::new();
            let mut stack = vec![holders[0]];
            seen.insert(holders[0]);
            let ch = self.children();
            while let Some(n) = stack.pop() {
                let mut nbrs: Vec<usize> = ch[n].clone();
                if let Some(p) = self.parent[n] {
                    nbrs.push(p);
                }
                for m in nbrs {
                    if holder_set.contains(&m) && seen.insert(m) {
                        stack.push(m);
                    }
                }
            }
            if seen.len() != holders.len() {
                return false;
            }
        }
        true
    }

    /// Checks that this tree is a join tree of an *inclusive extension* of
    /// `h`: every edge of `h` appears as the vars of a node carrying its atom
    /// index, and every node is a subset of some edge of `h`.
    pub fn is_inclusive_extension_of(&self, h: &Hypergraph) -> bool {
        for (i, &e) in h.edges().iter().enumerate() {
            let ok = self.nodes.iter().any(|n| n.atom == Some(i) && n.vars == e);
            if !ok {
                return false;
            }
        }
        self.nodes
            .iter()
            .all(|n| h.edges().iter().any(|&e| n.vars.is_subset(e)))
    }
}

/// An ext-S-connex tree: a join tree of an inclusive extension of `H`
/// together with a connected subtree `T'` whose variables are exactly `S`
/// (Bagan et al., see Figure 1 of the paper).
#[derive(Clone, Debug)]
pub struct ConnexTree {
    /// The underlying join tree, rooted at a node of `T'`.
    pub tree: JoinTree,
    /// Membership flags for `T'`.
    pub connex: Vec<bool>,
    /// The target variable set `S`.
    pub s: VSet,
}

impl ConnexTree {
    /// Node indexes of `T'`.
    pub fn connex_nodes(&self) -> Vec<usize> {
        (0..self.tree.len()).filter(|&i| self.connex[i]).collect()
    }

    /// A traversal order that lists all of `T'` (starting at the root)
    /// before any non-connex node, with parents always before children.
    pub fn order_connex_first(&self) -> Vec<usize> {
        let ch = self.tree.children();
        let mut order = Vec::with_capacity(self.tree.len());
        let mut later = Vec::new();
        let mut stack = vec![self.tree.root()];
        while let Some(n) = stack.pop() {
            order.push(n);
            for &c in &ch[n] {
                if self.connex[c] {
                    stack.push(c);
                } else {
                    later.push(c);
                }
            }
        }
        // Non-connex subtrees, in BFS order from their anchors.
        let mut queue: std::collections::VecDeque<usize> = later.into();
        while let Some(n) = queue.pop_front() {
            order.push(n);
            queue.extend(ch[n].iter().copied());
        }
        order
    }

    /// Validates every structural promise of an ext-S-connex tree.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), String> {
        if !self.tree.has_running_intersection() {
            return Err("running intersection violated".into());
        }
        if !self.tree.is_inclusive_extension_of(h) {
            return Err("not a join tree of an inclusive extension".into());
        }
        let cover = self
            .connex_nodes()
            .iter()
            .fold(VSet::EMPTY, |acc, &i| acc.union(self.tree.nodes()[i].vars));
        if cover != self.s {
            return Err(format!(
                "connex subtree covers {cover}, expected {}",
                self.s
            ));
        }
        if !self.connex[self.tree.root()] {
            return Err("root must belong to the connex subtree".into());
        }
        // T' connected: every connex node's parent is connex (root aside).
        for i in self.connex_nodes() {
            if let Some(p) = self.tree.parent(i) {
                if !self.connex[p] {
                    return Err(format!("connex node {i} has non-connex parent {p}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(vars: &[u32], atom: Option<usize>) -> JtNode {
        JtNode {
            vars: vars.iter().copied().collect(),
            atom,
        }
    }

    #[test]
    fn path_tree_has_running_intersection() {
        // {0,1} - {1,2} - {2,3}
        let t = JoinTree::new(
            vec![
                node(&[0, 1], Some(0)),
                node(&[1, 2], Some(1)),
                node(&[2, 3], Some(2)),
            ],
            vec![None, Some(0), Some(1)],
        );
        assert!(t.has_running_intersection());
        assert_eq!(t.separator(1), VSet::singleton(1));
        assert_eq!(t.separator(0), VSet::EMPTY);
    }

    #[test]
    fn rerooting_reverses_the_path_and_keeps_the_edges() {
        // 0 - 1 - 2, with 3 hanging off 1.
        let t = JoinTree::new(
            vec![
                node(&[0, 1], Some(0)),
                node(&[1, 2], Some(1)),
                node(&[2, 3], Some(2)),
                node(&[1, 4], Some(3)),
            ],
            vec![None, Some(0), Some(1), Some(1)],
        );
        let r = t.rerooted(2);
        assert_eq!(r.root(), 2);
        assert_eq!(
            (0..4).map(|n| r.parent(n)).collect::<Vec<_>>(),
            vec![Some(1), Some(2), None, Some(1)]
        );
        assert!(r.has_running_intersection());
        assert_eq!(r.separator(1), t.separator(2), "same edge, other end");
        assert_eq!(r.separator(3), t.separator(3), "off-path edges untouched");
        assert_eq!(r.bfs_order().len(), 4);
    }

    #[test]
    fn broken_running_intersection_detected() {
        // {0,1} - {2,3} - {1,2}: vertex 1 occurs in nodes 0 and 2 but not in
        // the middle node.
        let t = JoinTree::new(
            vec![
                node(&[0, 1], Some(0)),
                node(&[2, 3], Some(1)),
                node(&[1, 2], Some(2)),
            ],
            vec![None, Some(0), Some(1)],
        );
        assert!(!t.has_running_intersection());
    }

    #[test]
    fn bfs_order_starts_at_root() {
        let t = JoinTree::new(
            vec![
                node(&[0], Some(0)),
                node(&[0, 1], Some(1)),
                node(&[0, 2], Some(2)),
            ],
            vec![Some(1), None, Some(1)],
        );
        let order = t.bfs_order();
        assert_eq!(order[0], 1);
        assert_eq!(order.len(), 3);
    }

    #[test]
    #[should_panic(expected = "exactly one root")]
    fn rejects_forest() {
        JoinTree::new(
            vec![node(&[0], Some(0)), node(&[1], Some(1))],
            vec![None, None],
        );
    }

    #[test]
    fn inclusive_extension_check() {
        let h = Hypergraph::new(
            3,
            vec![
                [0u32, 1].into_iter().collect(),
                [1u32, 2].into_iter().collect(),
            ],
        );
        let good = JoinTree::new(
            vec![
                node(&[0, 1], Some(0)),
                node(&[1], None),
                node(&[1, 2], Some(1)),
            ],
            vec![None, Some(0), Some(1)],
        );
        assert!(good.is_inclusive_extension_of(&h));
        let bad = JoinTree::new(
            vec![node(&[0, 1], Some(0)), node(&[0, 1, 2], Some(1))],
            vec![None, Some(0)],
        );
        assert!(!bad.is_inclusive_extension_of(&h));
    }

    #[test]
    fn figure1_connex_tree_validates() {
        // Figure 1 of the paper: H with edges {x,y}, {w,y,z}, {v,w};
        // vars: x=0, y=1, z=2, w=3, v=4; S = {x,y,z}.
        let h = Hypergraph::new(
            5,
            vec![
                [0u32, 1].into_iter().collect(),
                [3u32, 1, 2].into_iter().collect(),
                [4u32, 3].into_iter().collect(),
            ],
        );
        // T: {x,y} - {y,z} - {w,y,z} - {v,w}, T' = {{x,y},{y,z}}.
        let tree = JoinTree::new(
            vec![
                node(&[0, 1], Some(0)),
                node(&[1, 2], None),
                node(&[3, 1, 2], Some(1)),
                node(&[4, 3], Some(2)),
            ],
            vec![None, Some(0), Some(1), Some(2)],
        );
        let ct = ConnexTree {
            tree,
            connex: vec![true, true, false, false],
            s: [0u32, 1, 2].into_iter().collect(),
        };
        ct.validate(&h).unwrap();
        let order = ct.order_connex_first();
        assert!(ct.connex[order[0]] && ct.connex[order[1]]);
        assert!(!ct.connex[order[2]] && !ct.connex[order[3]]);
    }
}

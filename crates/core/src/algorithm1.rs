//! Algorithm 1 (Theorem 4): a union of free-connex CQs in `DelayClin` with
//! constant writable memory during enumeration.
//!
//! For two members the algorithm interleaves:
//!
//! ```text
//! while a ← Q1(I).next():
//!     if a ∉ Q2(I): print a
//!     else:         print Q2(I).next()      # always succeeds
//! while a ← Q2(I).next(): print a
//! ```
//!
//! printing `Q1(I) \ Q2(I)` in the first loop and `Q2(I)` split across
//! lines 5 and 7 — duplicate-free without any lookup table (unlike the
//! Cheater-based pipeline, whose dedup set grows with the output; this is
//! the `CD∘Lin`-friendly variant the paper's conclusion highlights). Unions
//! of `n` members nest recursively, treating the tail as one query.
//!
//! All member engines are built through one shared context view, so the
//! members' preprocessing shares interned relations and normalizations, and
//! the membership probes of line 4 run against interned ids with reused
//! scratch buffers — no allocation per probe.

use std::sync::Arc;
use ucq_enumerate::Enumerator;
use ucq_query::Ucq;
use ucq_storage::{CtxView, Instance, Tuple};
use ucq_yannakakis::{CdyEngine, ContainsScratch, EvalError, OwnedCdyIter, SharedShapes};

/// Recursive union node. Each node carries a [`ContainsScratch`] for its
/// own engine's membership probes, so the line-4 checks reuse buffers
/// instead of allocating per answer.
enum Node {
    Leaf(OwnedCdyIter, ContainsScratch),
    Pair {
        first: OwnedCdyIter,
        first_scratch: ContainsScratch,
        rest: Box<Node>,
        first_done: bool,
    },
}

impl Node {
    fn contains(&mut self, t: &Tuple) -> bool {
        match self {
            Node::Leaf(it, scratch) => it.engine().contains_with(t, scratch),
            Node::Pair {
                first,
                first_scratch,
                rest,
                ..
            } => first.engine().contains_with(t, first_scratch) || rest.contains(t),
        }
    }

    fn next(&mut self) -> Option<Tuple> {
        match self {
            Node::Leaf(it, _) => it.next(),
            Node::Pair {
                first,
                first_scratch: _,
                rest,
                first_done,
            } => {
                while !*first_done {
                    match first.next() {
                        Some(a) => {
                            if !rest.contains(&a) {
                                return Some(a);
                            }
                            // Line 5: the duplicate budget pays for one
                            // fresh answer from the rest.
                            let b = rest.next();
                            debug_assert!(
                                b.is_some(),
                                "line 5 is called at most |Q1 ∩ rest| ≤ |rest| times"
                            );
                            if b.is_some() {
                                return b;
                            }
                            // Defensive: fall through and keep draining.
                        }
                        None => *first_done = true,
                    }
                }
                rest.next()
            }
        }
    }
}

/// The Algorithm 1 enumerator.
pub struct Algorithm1 {
    root: Node,
}

impl Algorithm1 {
    /// Preprocesses every member with CDY under a private context. Prefer
    /// [`Algorithm1::build_in`] (or the engine's session API) to share the
    /// context across members and calls.
    pub fn build(ucq: &Ucq, instance: &Instance) -> Result<Algorithm1, EvalError> {
        Algorithm1::build_in(ucq, instance, &CtxView::new())
    }

    /// Preprocesses every member with CDY (all must be free-connex) through
    /// the shared `ctx` and wires up the recursive interleaving.
    pub fn build_in(
        ucq: &Ucq,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<Algorithm1, EvalError> {
        Ok(Algorithm1::from_engines(Algorithm1::member_engines(
            ucq, instance, ctx,
        )?))
    }

    /// Builds the per-member CDY engines (the preprocessing phase), shared
    /// so sessions can reuse them across repeated enumerations.
    pub fn member_engines(
        ucq: &Ucq,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<Vec<Arc<CdyEngine>>, EvalError> {
        let shared = SharedShapes::of(ucq.cqs());
        ucq.cqs()
            .iter()
            .map(|cq| CdyEngine::for_member_in(cq, &shared, instance, ctx).map(Arc::new))
            .collect()
    }

    /// Wires preprocessed member engines into the interleaving enumerator.
    /// The engines must come from [`Algorithm1::member_engines`] (every
    /// member free-connex, outputs = heads).
    pub fn from_engines(engines: Vec<Arc<CdyEngine>>) -> Algorithm1 {
        let mut iters: Vec<OwnedCdyIter> = engines.into_iter().map(OwnedCdyIter::new).collect();
        let mut node = Node::Leaf(
            iters.pop().expect("UCQs are non-empty"),
            ContainsScratch::default(),
        );
        while let Some(first) = iters.pop() {
            node = Node::Pair {
                first,
                first_scratch: ContainsScratch::default(),
                rest: Box::new(node),
                first_done: false,
            };
        }
        Algorithm1 { root: node }
    }
}

impl Enumerator for Algorithm1 {
    fn next(&mut self) -> Option<Tuple> {
        self.root.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_ucq::evaluate_ucq_naive_set;
    use std::collections::HashSet;
    use ucq_query::parse_ucq;
    use ucq_storage::Relation;

    fn inst(rels: &[(&str, Vec<(i64, i64)>)]) -> Instance {
        rels.iter()
            .map(|(n, pairs)| (n.to_string(), Relation::from_pairs(pairs.iter().copied())))
            .collect()
    }

    fn check(text: &str, i: &Instance) {
        let u = parse_ucq(text).unwrap();
        let mut alg = Algorithm1::build(&u, i).unwrap();
        let got = alg.collect_all();
        let set: HashSet<Tuple> = got.iter().cloned().collect();
        assert_eq!(got.len(), set.len(), "Algorithm 1 must be duplicate-free");
        let want = evaluate_ucq_naive_set(&u, i).unwrap();
        assert_eq!(set, want);
    }

    #[test]
    fn two_member_union_with_overlap() {
        let i = inst(&[
            ("R", vec![(1, 2), (3, 4), (5, 6)]),
            ("S", vec![(3, 4), (7, 8)]),
        ]);
        check("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)", &i);
    }

    #[test]
    fn identical_members() {
        let i = inst(&[("R", vec![(1, 2), (3, 4)])]);
        check("Q1(x, y) <- R(x, y)\nQ2(a, b) <- R(a, b)", &i);
    }

    #[test]
    fn three_member_union() {
        let i = inst(&[
            ("R", vec![(1, 2), (9, 9)]),
            ("S", vec![(1, 2), (3, 4)]),
            ("T", vec![(3, 4), (5, 6), (9, 9)]),
        ]);
        check(
            "Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)\nQ3(u, v) <- T(u, v)",
            &i,
        );
    }

    #[test]
    fn joins_inside_members() {
        let i = inst(&[
            ("R", vec![(1, 2), (2, 3)]),
            ("S", vec![(2, 5), (3, 5)]),
            ("T", vec![(1, 5)]),
            ("U", vec![(5, 2), (5, 9)]),
        ]);
        check(
            "Q1(x, y, z) <- R(x, y), S(y, z)\nQ2(a, b, c) <- T(a, b), U(b, c)",
            &i,
        );
    }

    #[test]
    fn empty_members() {
        let i = inst(&[("R", vec![]), ("S", vec![(1, 1)])]);
        check("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)", &i);
    }

    #[test]
    fn non_free_connex_member_rejected() {
        let u = parse_ucq("Q1(x, y) <- A(x, z), B(z, y)").unwrap();
        assert!(Algorithm1::build(&u, &Instance::new()).is_err());
    }

    #[test]
    fn shared_engines_restart_cleanly() {
        // Sessions rebuild enumerators from the same engines; both runs must
        // produce the full answer set.
        let u = parse_ucq("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)").unwrap();
        let i = inst(&[("R", vec![(1, 2), (3, 4)]), ("S", vec![(3, 4), (5, 6)])]);
        let ctx = CtxView::new();
        let engines = Algorithm1::member_engines(&u, &i, &ctx).unwrap();
        let a = Algorithm1::from_engines(engines.clone()).collect_all();
        let b = Algorithm1::from_engines(engines).collect_all();
        assert_eq!(a.len(), 3);
        assert_eq!(a, b);
    }
}

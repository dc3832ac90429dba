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
//! lines 5 and 7 — duplicate-free without any lookup table, the
//! `CD∘Lin`-friendly variant the paper's conclusion highlights. Unions of
//! `n` members nest recursively, treating the tail as one query. Every
//! tractable request runs it, over the members' free-connex extensions once
//! Lemma 8 has materialized the virtual relations ([`crate::pipeline`];
//! Theorem 12, of which Theorem 4 is the case with nothing to materialize).
//! The members of an FD rewrite ([`crate::fd`]) answer on a prefix of their
//! heads; each probe lifts that prefix to the member's whole head through
//! the FD lookups that grew it ([`ucq_yannakakis::LiftStep`]), so they
//! interleave the same way.
//!
//! The interleave runs on interned ids end to end ([`Algorithm1Ids`], an
//! [`IdEnumerator`]): a member's cursor yields its answer as an id row,
//! the line-4 probe looks that row up in the other members' live row sets
//! ([`CdyEngine::contains_ids`]) and whichever row line 4 or 5 prints is
//! appended to the caller's block. The members of one union are built
//! through one context, so their ids compare as they are: no dictionary
//! is involved, nothing is allocated per answer, and a duplicate is never
//! decoded. [`Algorithm1`] is the value facade over it — an [`IdDecoder`],
//! as for the other strategy arms — decoding a block at a time.

use crate::pipeline::UcqPipelinePrep;
use std::sync::Arc;
use ucq_enumerate::{Enumerator, IdDecoder, IdEnumerator};
use ucq_query::Ucq;
use ucq_storage::{CtxView, IdBlock, Instance, Tuple, ValueId};
use ucq_yannakakis::{CdyEngine, ContainsScratch, EvalError, OwnedCdyIter};

/// Recursive union node: a member's cursor, then the rest of the union.
enum Node {
    Leaf(OwnedCdyIter),
    Pair {
        first: OwnedCdyIter,
        rest: Box<Node>,
        first_done: bool,
    },
}

impl Node {
    fn contains(&self, row: &[ValueId], scratch: &mut ContainsScratch) -> bool {
        match self {
            Node::Leaf(it) => it.engine().contains_ids(row, scratch),
            Node::Pair { first, rest, .. } => {
                first.engine().contains_ids(row, scratch) || rest.contains(row, scratch)
            }
        }
    }

    /// Appends answers to `block` until it is full or this node is
    /// exhausted; returns the rows appended.
    fn next_block(&mut self, block: &mut IdBlock, scratch: &mut ContainsScratch) -> usize {
        let (first, rest, first_done) = match self {
            Node::Leaf(it) => return it.next_block(block),
            Node::Pair {
                first,
                rest,
                first_done,
            } => (first, rest, first_done),
        };
        let mut n = 0;
        while !*first_done && !block.is_full() {
            match first.next_row() {
                None => *first_done = true,
                Some(row) if !rest.contains(row, scratch) => {
                    block.push_row(row);
                    n += 1;
                }
                Some(_) => {
                    // Line 5: the duplicate pays for one fresh answer of
                    // the rest — a fill capped at one more row.
                    let cap = block.max_rows();
                    block.set_max_rows(block.len() + 1);
                    let fresh = rest.next_block(block, scratch);
                    block.set_max_rows(cap);
                    debug_assert_eq!(
                        fresh, 1,
                        "line 5 is called at most |Q1 ∩ rest| ≤ |rest| times"
                    );
                    n += fresh;
                }
            }
        }
        if *first_done {
            n += rest.next_block(block, scratch);
        }
        n
    }
}

/// Algorithm 1 on the id spine: the interleave as an [`IdEnumerator`].
pub struct Algorithm1Ids {
    root: Node,
    arity: usize,
    /// Buffers of the line-4 probes, shared by every node.
    scratch: ContainsScratch,
}

impl Algorithm1Ids {
    /// Wires preprocessed member engines into the interleave. The engines
    /// must come from [`Algorithm1::member_engines`] (every member
    /// free-connex, outputs = heads, one dictionary lineage), be the
    /// extended members of a Theorem 12 union, or the lifted members of an
    /// FD rewrite.
    pub fn new(engines: Vec<Arc<CdyEngine>>) -> Algorithm1Ids {
        let mut iters: Vec<OwnedCdyIter> = engines.into_iter().map(OwnedCdyIter::new).collect();
        let last = iters.pop().expect("UCQs are non-empty");
        let arity = last.engine().output_arity();
        let mut node = Node::Leaf(last);
        while let Some(first) = iters.pop() {
            node = Node::Pair {
                first,
                rest: Box::new(node),
                first_done: false,
            };
        }
        Algorithm1Ids {
            root: node,
            arity,
            scratch: ContainsScratch::default(),
        }
    }
}

impl IdEnumerator for Algorithm1Ids {
    fn arity(&self) -> usize {
        self.arity
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        debug_assert_eq!(block.arity(), self.arity);
        self.root.next_block(block, &mut self.scratch)
    }
}

/// The Algorithm 1 enumerator: [`Algorithm1Ids`] behind the block-decoding
/// value facade. A request reaches the interleave through
/// [`UcqEngine`](crate::UcqEngine); this facade starts one over engines the
/// caller prepared.
pub struct Algorithm1 {
    inner: IdDecoder<Algorithm1Ids>,
}

impl Algorithm1 {
    /// Builds the per-member CDY engines (the preprocessing phase), shared
    /// so sessions can reuse them across repeated enumerations: the
    /// pipeline's members under an empty plan, since a union of
    /// free-connex members is its own union extension.
    pub fn member_engines(
        ucq: &Ucq,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<Vec<Arc<CdyEngine>>, EvalError> {
        Ok(UcqPipelinePrep::prepare(ucq, Arc::default(), &[], instance, ctx, None)?.engines)
    }

    /// Wires preprocessed member engines into the interleaving enumerator,
    /// decoding through the engines' own view that knows every member's
    /// ids (after a refreeze, the newest). The engines must come from
    /// [`Algorithm1::member_engines`] (every member free-connex, outputs =
    /// heads) or be the extended members of a prepared Theorem 12 union
    /// ([`UcqPipelinePrep::engines`](crate::UcqPipelinePrep::engines)).
    pub fn from_engines(engines: Vec<Arc<CdyEngine>>) -> Algorithm1 {
        let ctx = covering_view(&engines);
        Algorithm1 {
            inner: IdDecoder::new(Algorithm1Ids::new(engines), ctx),
        }
    }

    /// Rows the value facade has pulled from the interleave.
    pub fn rows_pulled(&self) -> usize {
        self.inner.rows_pulled()
    }

    /// Rows the value facade has decoded.
    pub fn rows_decoded(&self) -> usize {
        self.inner.rows_decoded()
    }
}

/// Moves member engines onto `view`, a snapshot of the context they were
/// built through, and first builds what a reader would otherwise build on
/// its own time: the membership sets the interleave probes (every member's
/// but the first's, which is only ever enumerated). An engine some other
/// holder shares — a live stream, the previous epoch — keeps the view it
/// has, which stays valid: one dictionary lineage, same ids.
pub(crate) fn retarget_members(engines: &mut [Arc<CdyEngine>], view: &CtxView) {
    for eng in engines.iter().skip(1) {
        eng.warm_membership();
    }
    for eng in engines {
        if let Some(e) = Arc::get_mut(eng) {
            e.set_view(view.clone());
        }
    }
}

/// A view that decodes every member's ids. After a refreeze the members
/// need not share one: those reused from an earlier epoch keep its frozen
/// view, the rebuilt ones hold the newer, and an engine pinned across a
/// freeze is still on the build view. A build view knows its whole
/// lineage; among snapshots of one lineage the highest frozen watermark
/// covers the others (not `dict_len`: a snapshot's overlay ids are its
/// own, so a stale view that interned past its freeze would win wrongly).
fn covering_view(engines: &[Arc<CdyEngine>]) -> CtxView {
    let watermark = |view: &CtxView| match view {
        CtxView::Build(_) => usize::MAX,
        CtxView::Frozen(f) => f.frozen_len(),
    };
    engines
        .iter()
        .map(|e| e.context())
        .max_by_key(|view| watermark(view))
        .expect("UCQs are non-empty")
        .clone()
}

impl Enumerator for Algorithm1 {
    fn next(&mut self) -> Option<Tuple> {
        self.inner.next()
    }

    fn next_into(&mut self, out: &mut Vec<Tuple>, max: usize) -> usize {
        self.inner.next_into(out, max)
    }

    fn expect_at_most(&mut self, rows: usize) {
        self.inner.expect_at_most(rows);
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
        let engines = Algorithm1::member_engines(&u, i, &CtxView::new()).unwrap();
        let mut alg = Algorithm1::from_engines(engines);
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
        assert!(Algorithm1::member_engines(&u, &Instance::new(), &CtxView::new()).is_err());
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

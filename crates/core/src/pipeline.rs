//! The Theorem 12 pipeline: enumerating a free-connex UCQ in `DelayClin`.
//!
//! Preprocessing follows the paper's proof: materialize every virtual
//! relation in provenance order (Lemma 8), then build each member's
//! free-connex extension over the enlarged instance. Every extended member
//! is free-connex there, and their answers together are exactly `Q(I)`
//! (see [`crate::lemma8`]): the provider answers Lemma 8 emits along the
//! way are among them, so nothing is replayed. Enumeration is therefore
//! Algorithm 1 ([`Algorithm1Ids`]) over the extended members: constant
//! delay with membership probes, and no lookup table that grows with the
//! output.
//!
//! The Cheater (Lemma 5) is left with one job: an FD rewrite answered on a
//! projected head (a prep whose answer arity is below the head's). Its
//! members' outputs do not cover their connex targets, so they cannot be
//! probed; they run back to back and the Cheater absorbs the answers that
//! only differed beyond the kept positions.
//!
//! Either way the spine is id-level and block-at-a-time; the request path
//! ([`UcqEngine`](crate::UcqEngine)) decodes each answer exactly once, a
//! block at a time, in the one [`IdDecoder`](ucq_enumerate::IdDecoder)
//! every strategy arm ends in.
//!
//! The preprocessing phase is reified as [`UcqPipelinePrep`]: all member
//! engines share one context view (so the base relations are interned
//! and normalized once for the whole union), and a prep starts any number
//! of enumerations off them — this is what
//! [`EvalSession`](crate::engine::EvalSession) caches to serve repeated
//! queries without redoing linear preprocessing.

use crate::algorithm1::{member_engines, retarget_members, Algorithm1Ids};
use crate::lemma8::materialize_atom_in;
use crate::plan::ExtensionPlan;
use std::sync::Arc;
use ucq_enumerate::{Cheater, IdEnumerator};
use ucq_query::{Cq, Ucq};
use ucq_storage::{CtxView, IdBlock, Instance};
use ucq_yannakakis::{CdyEngine, EvalError};

/// The preprocessed (linear-phase) state of the Theorem 12 pipeline:
/// materialized virtual relations folded into per-member CDY engines, ready
/// to start enumerations.
///
/// Cloning is cheap (the member engines are shared `Arc`s) —
/// `FrozenSession::refreeze` clones the prep wholesale when no relation it
/// reads was touched by a delta.
#[derive(Clone)]
pub struct UcqPipelinePrep {
    /// One preprocessed engine per member's free-connex extension.
    engines: Vec<Arc<CdyEngine>>,
    /// Tuples materialization contributed to the instance, per planned atom
    /// (diagnostics for tests/benches).
    pub materialized_sizes: Vec<usize>,
    ctx: CtxView,
}

impl UcqPipelinePrep {
    /// Runs the preprocessing phase (materializations + per-member CDY
    /// builds) through the shared `ctx`.
    pub fn prepare(
        ucq: &Ucq,
        plan: &ExtensionPlan,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<UcqPipelinePrep, EvalError> {
        UcqPipelinePrep::prepare_projected(ucq, plan, ucq.head_arity(), instance, ctx)
    }

    /// As [`UcqPipelinePrep::prepare`], answering with the first `arity`
    /// head positions only (an FD rewrite whose heads grew): member engines
    /// output them, and the Cheater absorbs answers that only differed
    /// beyond them — at most one per member, so the Lemma 5 budget stands.
    pub(crate) fn prepare_projected(
        ucq: &Ucq,
        plan: &ExtensionPlan,
        arity: usize,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<UcqPipelinePrep, EvalError> {
        let mut ext_instance = instance.clone();
        let mut materialized_sizes = Vec::with_capacity(plan.atoms.len());

        let name_of =
            |t: usize, v: ucq_hypergraph::VSet| -> String { plan.atom_for(t, v).rel_name.clone() };
        for atom in &plan.atoms {
            let m = materialize_atom_in(ucq, atom, &name_of, &ext_instance, ctx)?;
            materialized_sizes.push(m.relation.len());
            ext_instance.insert_shared(atom.rel_name.clone(), m.relation);
        }

        let extended: Vec<Cq> = (0..ucq.len())
            .map(|i| plan.extended_query(ucq, i))
            .collect();
        let engines = member_engines(&extended, arity, &ext_instance, ctx)?;
        Ok(UcqPipelinePrep {
            engines,
            materialized_sizes,
            ctx: ctx.clone(),
        })
    }

    /// The extended members' engines, in member order.
    pub fn engines(&self) -> &[Arc<CdyEngine>] {
        &self.engines
    }

    /// Moves this prep onto `view`, a snapshot of the context it was built
    /// through (see [`retarget_members`]).
    pub(crate) fn retarget(&mut self, view: &CtxView) {
        self.ctx = view.clone();
        retarget_members(&mut self.engines, view);
    }

    /// Starts one enumeration over the preprocessed state, on the id
    /// spine. Starting is O(1) in the data: cursors over shared engines; no
    /// linear pass is repeated.
    pub(crate) fn start_ids(&self) -> UnionIds {
        let ids = Algorithm1Ids::new(self.engines.clone());
        if ids.probes() {
            return UnionIds::Probed(ids);
        }
        // Lemma 5's m: an answer surfaces at most once per member.
        let budget = self.engines.len() + 1;
        let cheater = Cheater::with_capacity_hint(ids, budget, self.ctx.clone(), 0);
        UnionIds::Deduped(Box::new(cheater))
    }
}

/// The id spine of a prepared union: Algorithm 1's interleave when every
/// member can be probed, else the members back to back behind the Cheater.
pub(crate) enum UnionIds {
    Probed(Algorithm1Ids),
    Deduped(Box<Cheater<Algorithm1Ids>>),
}

impl IdEnumerator for UnionIds {
    fn arity(&self) -> usize {
        match self {
            UnionIds::Probed(ids) => ids.arity(),
            UnionIds::Deduped(cheater) => cheater.arity(),
        }
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        match self {
            UnionIds::Probed(ids) => ids.next_block(block),
            UnionIds::Deduped(cheater) => cheater.next_block(block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_ucq::evaluate_ucq_naive;
    use crate::{CostedSearch, SearchConfig};
    use std::collections::HashSet;
    use ucq_enumerate::{Enumerator, IdDecoder};
    use ucq_query::parse_ucq;
    use ucq_storage::{Relation, Tuple};

    /// One enumeration of `prep` behind the block decoder, as a request
    /// runs it.
    fn start(prep: &UcqPipelinePrep, ctx: &CtxView) -> IdDecoder<UnionIds> {
        IdDecoder::new(prep.start_ids(), ctx.clone())
    }

    fn inst(rels: &[(&str, Vec<(i64, i64)>)]) -> Instance {
        rels.iter()
            .map(|(n, pairs)| (n.to_string(), Relation::from_pairs(pairs.iter().copied())))
            .collect()
    }

    fn run_pipeline(text: &str, i: &Instance) -> (Vec<Tuple>, Vec<Tuple>) {
        let u = parse_ucq(text).unwrap();
        let plan = CostedSearch::prepare(&u, &SearchConfig::default())
            .map(|s| s.certificate())
            .expect("free-connex");
        let ctx = CtxView::new();
        let prep = UcqPipelinePrep::prepare(&u, &plan, i, &ctx).unwrap();
        let mut p = start(&prep, &ctx);
        let got = p.collect_all();
        assert_eq!(p.rows_decoded(), got.len(), "decode once per answer");
        assert_eq!(p.rows_pulled(), got.len());
        assert!(
            matches!(p.inner(), UnionIds::Probed(_)),
            "Algorithm 1, no Cheater"
        );
        let want = evaluate_ucq_naive(&u, i).unwrap();
        (got, want)
    }

    #[test]
    fn example2_matches_naive_and_dedups() {
        let i = inst(&[
            ("R1", vec![(1, 2), (1, 5), (9, 7)]),
            ("R2", vec![(2, 3), (5, 3), (7, 0)]),
            ("R3", vec![(3, 4), (3, 6), (0, 2)]),
        ]);
        let (got, want) = run_pipeline(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
            &i,
        );
        let got_set: HashSet<Tuple> = got.iter().cloned().collect();
        assert_eq!(got.len(), got_set.len(), "no duplicates");
        let want_set: HashSet<Tuple> = want.into_iter().collect();
        assert_eq!(got_set, want_set);
    }

    fn rel3(rows: &[(i64, i64, i64)]) -> Relation {
        let mut r = Relation::new(3);
        for &(a, b, c) in rows {
            r.push_row(&[
                ucq_storage::Value::Int(a),
                ucq_storage::Value::Int(b),
                ucq_storage::Value::Int(c),
            ]);
        }
        r
    }

    #[test]
    fn example13_union_of_three_hard_members() {
        let mut i = inst(&[
            ("R1", vec![(1, 2), (4, 5), (1, 5)]),
            ("R2", vec![(2, 3), (5, 6), (2, 6)]),
            ("R3", vec![(3, 4), (6, 7), (3, 7)]),
            ("R4", vec![(4, 5), (7, 8), (4, 8)]),
        ]);
        i.insert("R5", rel3(&[(5, 6, 7), (8, 0, 1), (5, 1, 1)]));
        let (got, want) = run_pipeline(
            "Q1(x, y, v, u) <- R1(x, z1), R2(z1, z2), R3(z2, z3), R4(z3, y), R5(y, v, u)\n\
             Q2(x, y, v, u) <- R1(x, y), R2(y, v), R3(v, z1), R4(z1, u), R5(u, t1, t2)\n\
             Q3(x, y, v, u) <- R1(x, z1), R2(z1, y), R3(y, v), R4(v, u), R5(u, t1, t2)",
            &i,
        );
        let got_set: HashSet<Tuple> = got.iter().cloned().collect();
        assert_eq!(got.len(), got_set.len(), "no duplicates");
        let want_set: HashSet<Tuple> = want.into_iter().collect();
        assert_eq!(got_set, want_set);
    }

    #[test]
    fn example21_body_isomorphic_pair() {
        let i = inst(&[
            ("R1", vec![(1, 2), (3, 2), (0, 9)]),
            ("R2", vec![(2, 4), (9, 4)]),
            ("R3", vec![(4, 5), (4, 6)]),
            ("R4", vec![(5, 1), (6, 3)]),
        ]);
        let (got, want) = run_pipeline(
            "Q1(w, y, x, z) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)\n\
             Q2(x, y, w, v) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)",
            &i,
        );
        let got_set: HashSet<Tuple> = got.iter().cloned().collect();
        assert_eq!(got.len(), got_set.len());
        let want_set: HashSet<Tuple> = want.into_iter().collect();
        assert_eq!(got_set, want_set);
    }

    #[test]
    fn all_free_connex_union_via_pipeline() {
        let i = inst(&[("R", vec![(1, 2), (3, 4)]), ("S", vec![(3, 4), (5, 6)])]);
        let (got, want) = run_pipeline(
            "Q1(x, y) <- R(x, y)\n\
             Q2(a, b) <- S(a, b)",
            &i,
        );
        let got_set: HashSet<Tuple> = got.iter().cloned().collect();
        assert_eq!(got.len(), got_set.len(), "overlap (3,4) emitted once");
        assert_eq!(got_set.len(), 3);
        let want_set: HashSet<Tuple> = want.into_iter().collect();
        assert_eq!(got_set, want_set);
    }

    #[test]
    fn empty_instance_yields_nothing() {
        let i = Instance::new();
        let (got, want) = run_pipeline(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
            &i,
        );
        assert!(got.is_empty());
        assert!(want.is_empty());
    }

    #[test]
    fn prepared_pipeline_restarts() {
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let plan = CostedSearch::prepare(&u, &SearchConfig::default())
            .map(|s| s.certificate())
            .unwrap();
        let i = inst(&[
            ("R1", vec![(1, 2), (1, 5)]),
            ("R2", vec![(2, 3), (5, 3)]),
            ("R3", vec![(3, 4)]),
        ]);
        let ctx = CtxView::new();
        let prep = UcqPipelinePrep::prepare(&u, &plan, &i, &ctx).unwrap();
        let a: HashSet<Tuple> = start(&prep, &ctx).collect_all().into_iter().collect();
        let b: HashSet<Tuple> = start(&prep, &ctx).collect_all().into_iter().collect();
        assert_eq!(a, b, "restarted enumerations agree");
        let want: HashSet<Tuple> = evaluate_ucq_naive(&u, &i).unwrap().into_iter().collect();
        assert_eq!(a, want);
    }

    #[test]
    fn id_level_drain_matches_value_facade() {
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let plan = CostedSearch::prepare(&u, &SearchConfig::default())
            .map(|s| s.certificate())
            .unwrap();
        let i = inst(&[
            ("R1", vec![(1, 2), (1, 5), (9, 7)]),
            ("R2", vec![(2, 3), (5, 3), (7, 0)]),
            ("R3", vec![(3, 4), (3, 6), (0, 2)]),
        ]);
        let ctx = CtxView::new();
        let prep = UcqPipelinePrep::prepare(&u, &plan, &i, &ctx).unwrap();

        let via_values = start(&prep, &ctx).collect_all();

        let (ids, rows) = prep.start_ids().collect_ids();
        let via_ids = ctx.decode_rows(3, &ids);
        assert_eq!(via_ids, via_values, "same answers in the same order");
        assert_eq!(rows, via_values.len());
    }

    #[test]
    fn only_a_projected_head_runs_the_cheater() {
        // Example 2 answered on (x, y), as an FD rewrite whose heads grew
        // by w would be: R2 and R3 are functional, so each member's
        // projected answers are distinct, yet (1, 3) comes from both.
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let plan = CostedSearch::prepare(&u, &SearchConfig::default())
            .map(|s| s.certificate())
            .unwrap();
        let i = inst(&[
            ("R1", vec![(1, 2), (1, 3), (9, 7)]),
            ("R2", vec![(2, 3), (3, 4), (7, 0)]),
            ("R3", vec![(3, 4), (4, 5), (0, 2)]),
        ]);
        let ctx = CtxView::new();
        let prep = UcqPipelinePrep::prepare_projected(&u, &plan, 2, &i, &ctx).unwrap();
        assert!(prep.engines().iter().all(|e| !e.has_membership()));
        let mut p = start(&prep, &ctx);
        let got: Vec<Tuple> = p.collect_all();
        let set: HashSet<Tuple> = got.iter().cloned().collect();
        assert_eq!(got.len(), set.len(), "the Cheater dedups");
        let UnionIds::Deduped(cheater) = p.inner() else {
            panic!("a projected head runs the Cheater");
        };
        let stats = cheater.stats();
        assert!(stats.duplicates > 0, "{stats:?}");
        assert_eq!(stats.emitted, got.len());
        let want: HashSet<Tuple> = evaluate_ucq_naive(&u, &i)
            .unwrap()
            .into_iter()
            .map(|t| Tuple::from(t.values()[..2].to_vec()))
            .collect();
        assert_eq!(set, want);
    }

    #[test]
    fn materialized_sizes_match_lemma8_output() {
        // Satellite check: the prep's diagnostics must pin exactly the
        // per-atom relation sizes an independent Lemma 8 run produces over
        // the same progressively-extended instance.
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let plan = CostedSearch::prepare(&u, &SearchConfig::default())
            .map(|s| s.certificate())
            .unwrap();
        let i = inst(&[
            ("R1", vec![(1, 2), (1, 5), (9, 9)]),
            ("R2", vec![(2, 3), (5, 3), (9, 8)]),
            ("R3", vec![(3, 4), (8, 0)]),
        ]);
        let ctx = CtxView::new();
        let prep = UcqPipelinePrep::prepare(&u, &plan, &i, &ctx).unwrap();

        let name_of = |t: usize, v: ucq_hypergraph::VSet| plan.atom_for(t, v).rel_name.clone();
        let mut ext = i.clone();
        let mut want_sizes = Vec::new();
        let ctx2 = CtxView::new();
        for atom in &plan.atoms {
            let m = materialize_atom_in(&u, atom, &name_of, &ext, &ctx2).unwrap();
            want_sizes.push(m.relation.len());
            ext.insert_shared(atom.rel_name.clone(), m.relation);
        }
        assert!(!want_sizes.is_empty(), "example 2 materializes atoms");
        assert_eq!(prep.materialized_sizes, want_sizes);
    }
}

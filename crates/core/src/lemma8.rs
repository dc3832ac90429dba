//! Materializing provided relations (Lemma 8).
//!
//! For a planned atom with provenance `(provider j, h, S, uses)`:
//!
//! 1. extend `Q_j` with its own (already materialized) virtual atoms `uses`;
//! 2. run CDY on the extension with connex target `S` — by construction it
//!    is `S`-connex, and the preprocessing is linear;
//! 3. for every `S`-binding, extend it once to a full homomorphism (the
//!    reducer guarantees a witness) and *emit* the corresponding provider
//!    answer — this is how the lemma charges the work against legitimate
//!    output;
//! 4. translate the binding through `h⁻¹` (skipping bindings that disagree
//!    on two preimages of the same target variable) into a row of the
//!    virtual relation.
//!
//! The result **contains** `π_{V1}(hom(body Q_target))` — possibly strictly:
//! the provider's body is only a homomorphic pre-image of the target's, so
//! it can match where the target does not — which is exactly what joining it
//! into the target needs to preserve semantics.

use crate::plan::PlannedAtom;
use std::sync::Arc;
use ucq_query::{Atom, Ucq, VarId};
use ucq_storage::{CtxView, IdRel, IdSet, Relation, Tuple, ValueId};
use ucq_yannakakis::{CdyEngine, EvalError};

/// Connex bindings extended (and translated) per block; see
/// [`CdyEngine::extend_full_block`].
const EXTEND_BLOCK: usize = 1024;

/// The outcome of materializing one virtual atom.
///
/// Provider answers stay *interned*: they are flat id rows under the
/// materializing context's dictionary, ready to be replayed by the
/// pipeline's id-level early stage without ever being decoded. Callers
/// that need values (tests, diagnostics) decode through
/// [`Materialized::decode_provider_answers`].
#[derive(Debug)]
pub struct Materialized {
    /// The virtual relation (columns = the atom's variables, sorted),
    /// shared so it can be inserted into an instance without copying; its
    /// interned mirror is pre-registered with the materializing context
    /// (see `EvalContext::register_interned`), so downstream engine
    /// builds never re-intern it.
    pub relation: Arc<Relation>,
    /// Provider answers emitted along the way (a subset `M ⊆ Q_j(I)`), as
    /// a flat run of `provider_width` ids per answer (empty for Boolean
    /// providers, whose answers are counted by `n_provider_answers`).
    pub provider_ids: Vec<ValueId>,
    /// Ids per provider answer (the provider's head arity).
    pub provider_width: usize,
    /// Number of provider answers emitted (authoritative also for width 0).
    pub n_provider_answers: usize,
}

impl Materialized {
    /// Decodes the emitted provider answers to value tuples (test/bench
    /// boundary; the pipeline replays the ids directly).
    pub fn decode_provider_answers(&self, ctx: &CtxView) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.n_provider_answers);
        ctx.decode_rows_into(
            self.provider_width,
            self.n_provider_answers,
            &self.provider_ids,
            &mut out,
        );
        out
    }
}

/// Materializes `atom` against `instance`, which must already contain the
/// relations named by the provenance's `uses` (guaranteed by plan order).
/// The provider's CDY build runs through the shared `ctx`, so successive
/// materializations over one instance reuse interned relations and
/// normalizations.
pub fn materialize_atom_in(
    ucq: &Ucq,
    atom: &PlannedAtom,
    rel_name_of: &dyn Fn(usize, ucq_hypergraph::VSet) -> String,
    instance: &ucq_storage::Instance,
    ctx: &CtxView,
) -> Result<Materialized, EvalError> {
    let prov = &atom.provenance;
    let provider = &ucq.cqs()[prov.provider];

    // Build the provider's extension Q_j⁺.
    let extra: Vec<Atom> = prov
        .uses
        .iter()
        .map(|&u| Atom {
            rel: rel_name_of(prov.provider, u),
            args: u.iter().collect(),
        })
        .collect();
    let qplus = if extra.is_empty() {
        provider.clone()
    } else {
        provider.with_extra_atoms(&extra)
    };

    // CDY with connex target S, outputting the S variables.
    let eng = CdyEngine::for_projection_in(&qplus, prov.s, instance, ctx)?;

    // Preimage positions: for each target variable of the atom (sorted),
    // the provider variables in S that h maps onto it.
    let preimages: Vec<Vec<VarId>> = atom
        .vars
        .iter()
        .map(|v1| {
            let pre: Vec<VarId> = (0..provider.n_vars())
                .filter(|&v2| prov.s.contains(v2) && prov.hom[v2 as usize] == v1)
                .collect();
            assert!(
                !pre.is_empty(),
                "provided variables always have a preimage inside S"
            );
            pre
        })
        .collect();

    // The materialization loop runs entirely on interned ids, block-wise:
    // pull a block of connex bindings, extend them all to full
    // homomorphisms in one bulk-probe sweep per tree node, then emit and
    // translate. The provider answers and the virtual relation are decoded
    // at the very end, once per distinct row.
    let w = eng.n_vars() as usize;
    let mut relation_ids = IdRel::new(atom.vars.len() as usize);
    let mut seen = IdSet::new();
    let mut provider_ids: Vec<ValueId> = Vec::new();
    let mut row: Vec<ValueId> = Vec::with_capacity(preimages.len());
    let head = provider.head().to_vec();

    let mut it = eng.iter();
    let mut block: Vec<ValueId> = Vec::with_capacity(EXTEND_BLOCK * w);
    let mut n_answers = 0usize;
    loop {
        block.clear();
        let mut pulled = 0usize;
        while pulled < EXTEND_BLOCK && it.next_binding_into(&mut block) {
            pulled += 1;
        }
        if pulled == 0 {
            break;
        }
        n_answers += pulled;
        eng.extend_full_block(&mut block);
        for b in 0..pulled {
            let binding = &block[b * w..(b + 1) * w];
            // Emit the provider answer μ|free(Q_j).
            provider_ids.extend(head.iter().map(|&v| binding[v as usize]));
            // Translate through h⁻¹.
            row.clear();
            let mut consistent = true;
            for pre in &preimages {
                let val = binding[pre[0] as usize];
                if pre[1..].iter().any(|&v2| binding[v2 as usize] != val) {
                    consistent = false;
                    break;
                }
                row.push(val);
            }
            if consistent && seen.insert(&row) {
                relation_ids.push_row(&row);
            }
        }
        if pulled < EXTEND_BLOCK {
            break;
        }
    }
    // The decoded value form feeds the extended instance; the id mirror is
    // registered with the context so member-engine builds over the
    // extended instance skip the re-intern of every materialized cell.
    let relation = Arc::new(ctx.decode_rel(&relation_ids));
    ctx.register_interned(&relation, Arc::new(relation_ids));
    Ok(Materialized {
        relation,
        provider_ids,
        provider_width: head.len(),
        n_provider_answers: n_answers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostedSearch, SearchConfig};
    use std::collections::HashSet;
    use ucq_query::parse_ucq;
    use ucq_storage::Instance;
    use ucq_yannakakis::evaluate_cq_naive;

    fn inst(rels: &[(&str, Vec<(i64, i64)>)]) -> Instance {
        rels.iter()
            .map(|(n, pairs)| (n.to_string(), Relation::from_pairs(pairs.iter().copied())))
            .collect()
    }

    #[test]
    fn example2_materialization_invariants() {
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
        let atom = &plan.atoms[0];
        let name_of = |t: usize, v: ucq_hypergraph::VSet| plan.atom_for(t, v).rel_name.clone();
        let ctx = CtxView::new();
        let m = materialize_atom_in(&u, atom, &name_of, &i, &ctx).unwrap();
        let provider_answers = m.decode_provider_answers(&ctx);

        // Invariant 1: contents ⊇ π_vars(hom(body Q1)). Compute the
        // projection with the naive evaluator on a re-headed Q1.
        let target_vars: Vec<u32> = atom.vars.iter().collect();
        let reheaded = u.cqs()[atom.target].with_head(target_vars).unwrap();
        let projection = evaluate_cq_naive(&reheaded, &i).unwrap();
        let content: HashSet<Tuple> = m.relation.to_tuples().into_iter().collect();
        for t in &projection {
            assert!(
                content.contains(t),
                "materialized relation must contain projection tuple {t}"
            );
        }

        // Invariant 2: emitted provider answers are genuine Q2 answers.
        let q2_answers: HashSet<Tuple> = evaluate_cq_naive(&u.cqs()[atom.provenance.provider], &i)
            .unwrap()
            .into_iter()
            .collect();
        for t in &provider_answers {
            assert!(
                q2_answers.contains(t),
                "emitted {t} must be a provider answer"
            );
        }
        assert_eq!(provider_answers.len(), m.n_provider_answers);

        // Invariant 3: |relation| bounded by provider output count.
        assert!(m.relation.len() <= m.n_provider_answers.max(1));
    }

    #[test]
    fn empty_provider_gives_empty_relation() {
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let plan = CostedSearch::prepare(&u, &SearchConfig::default())
            .map(|s| s.certificate())
            .unwrap();
        let i = inst(&[("R1", vec![]), ("R2", vec![]), ("R3", vec![])]);
        let name_of = |t: usize, v: ucq_hypergraph::VSet| plan.atom_for(t, v).rel_name.clone();
        let ctx = CtxView::new();
        let m = materialize_atom_in(&u, &plan.atoms[0], &name_of, &i, &ctx).unwrap();
        assert!(m.relation.is_empty());
        assert_eq!(m.n_provider_answers, 0);
        assert!(m.provider_ids.is_empty());
    }
}

//! Property tests for the context-threaded engine paths: whatever strategy
//! `UcqEngine` picks (Algorithm 1, the Theorem 12 pipeline, or the naive
//! fallback — all running through a shared `EvalContext`), its answers must
//! equal the naive baseline as multisets after deduplication, and the
//! session path must agree with the one-shot path call after call.

use proptest::prelude::*;
use std::collections::HashSet;
use ucq_core::{Algorithm1, CostedSearch, SearchConfig, UcqEngine, UcqPipelinePrep};
use ucq_enumerate::Enumerator;
use ucq_query::{Cq, Ucq};
use ucq_storage::{CtxView, Instance, Relation, Tuple, Value};

const VARS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// A random union: 1–3 members over shared relation names, all with the
/// same head arity (a requirement of `Ucq::new`).
fn arb_ucq() -> impl Strategy<Value = Ucq> {
    let atom = proptest::collection::vec(0..6u32, 1..=3);
    let member = proptest::collection::vec(atom, 1..=3);
    (
        proptest::collection::vec(member, 1..=3),
        proptest::collection::vec(proptest::bool::ANY, 6),
        0..=2usize,
    )
        .prop_filter_map("valid union", |(members, head_bits, head_arity)| {
            let cqs: Vec<Cq> = members
                .iter()
                .enumerate()
                .filter_map(|(m, atoms)| {
                    let used: HashSet<u32> = atoms.iter().flatten().copied().collect();
                    // Pick `head_arity` head variables deterministically from
                    // the used ones, steered by head_bits.
                    let mut head: Vec<&str> = Vec::new();
                    for v in 0..6u32 {
                        if head.len() == head_arity {
                            break;
                        }
                        if used.contains(&v) && head_bits[v as usize] {
                            head.push(VARS[v as usize]);
                        }
                    }
                    for v in 0..6u32 {
                        if head.len() == head_arity {
                            break;
                        }
                        let name = VARS[v as usize];
                        if used.contains(&v) && !head.contains(&name) {
                            head.push(name);
                        }
                    }
                    if head.len() != head_arity {
                        return None;
                    }
                    let specs: Vec<(String, Vec<&str>)> = atoms
                        .iter()
                        .enumerate()
                        .map(|(i, args)| {
                            (
                                // Shared pool of relation names across
                                // members so unions actually overlap.
                                format!("R{}", (i + m) % 4),
                                args.iter().map(|&v| VARS[v as usize]).collect(),
                            )
                        })
                        .collect();
                    let refs: Vec<(&str, &[&str])> = specs
                        .iter()
                        .map(|(n, a)| (n.as_str(), a.as_slice()))
                        .collect();
                    Cq::build(&format!("Q{m}"), &head, &refs).ok()
                })
                .collect();
            if cqs.is_empty() {
                return None;
            }
            Ucq::new(cqs).ok()
        })
}

/// A random instance covering every relation the union mentions, with a
/// small domain so joins hit.
fn arb_instance(ucq: &Ucq) -> impl Strategy<Value = Instance> {
    let mut specs: Vec<(String, usize)> = ucq
        .cqs()
        .iter()
        .flat_map(|cq| cq.atoms().iter().map(|a| (a.rel.clone(), a.args.len())))
        .collect();
    specs.sort();
    specs.dedup();
    // A union can reuse one name at two arities; such instances are not
    // well-formed — drop the later arity (the engine reports a schema error
    // for the mismatched atom either way, on both compared paths).
    specs.dedup_by(|a, b| a.0 == b.0);
    let mut strategies = Vec::new();
    for (name, arity) in specs {
        let rows = proptest::collection::vec(proptest::collection::vec(0i64..4, arity), 0..10);
        strategies.push(rows.prop_map(move |rows| {
            let mut rel = Relation::new(arity);
            for row in &rows {
                let vals: Vec<Value> = row.iter().map(|&x| Value::Int(x)).collect();
                rel.push_row(&vals);
            }
            (name.clone(), rel)
        }));
    }
    strategies.prop_map(|pairs| pairs.into_iter().collect())
}

fn ucq_and_instance() -> impl Strategy<Value = (Ucq, Instance)> {
    arb_ucq().prop_flat_map(|u| {
        let inst = arb_instance(&u);
        (Just(u), inst)
    })
}

/// A value-level nested-loop oracle: enumerates every homomorphism by
/// backtracking directly over the row-major [`Relation`]s — no interning,
/// no indexes, no batched probes. This is the independent reference the
/// CSR-index/batched-probe paths are checked against.
fn value_level_cq(cq: &Cq, inst: &Instance, out: &mut HashSet<Tuple>) -> Result<(), ()> {
    fn descend(
        cq: &Cq,
        inst: &Instance,
        atom_idx: usize,
        binding: &mut Vec<Option<Value>>,
        out: &mut HashSet<Tuple>,
    ) {
        if atom_idx == cq.atoms().len() {
            let row: Vec<Value> = cq
                .head()
                .iter()
                .map(|&v| binding[v as usize].expect("safe heads are bound"))
                .collect();
            out.insert(Tuple::from_row(&row));
            return;
        }
        let atom = &cq.atoms()[atom_idx];
        let Some(rel) = inst.get(&atom.rel) else {
            return; // missing relations are empty
        };
        'rows: for row in rel.iter_rows() {
            let saved = binding.clone();
            for (&v, &val) in atom.args.iter().zip(row) {
                match binding[v as usize] {
                    Some(bound) if bound != val => {
                        *binding = saved;
                        continue 'rows;
                    }
                    _ => binding[v as usize] = Some(val),
                }
            }
            descend(cq, inst, atom_idx + 1, binding, out);
            *binding = saved;
        }
    }
    for atom in cq.atoms() {
        match inst.get(&atom.rel) {
            Some(rel) if rel.arity() != atom.args.len() => return Err(()),
            _ => {}
        }
    }
    let mut binding: Vec<Option<Value>> = vec![None; cq.n_vars() as usize];
    descend(cq, inst, 0, &mut binding, out);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The strategy-selected (context-threaded) enumeration equals the
    /// naive baseline as a multiset post-dedup: no duplicates in the
    /// stream, same answer set.
    #[test]
    fn engine_matches_naive((u, inst) in ucq_and_instance()) {
        let engine = UcqEngine::new(u);
        let naive = match engine.enumerate_naive(&inst) {
            Ok(answers) => answers,
            // Schema errors (arity clashes from generation) must be
            // reported identically by the strategy path.
            Err(_) => {
                prop_assert!(engine.enumerate(&inst).is_err());
                return Ok(());
            }
        };
        let want: HashSet<Tuple> = naive.into_iter().collect();
        let got = engine.enumerate(&inst).unwrap().collect_all();
        let got_set: HashSet<Tuple> = got.iter().cloned().collect();
        prop_assert_eq!(
            got.len(), got_set.len(),
            "DelayClin streams are duplicate-free ({:?})", engine.strategy()
        );
        prop_assert_eq!(&got_set, &want, "strategy {:?}", engine.strategy());
    }

    /// The CSR-index/batched-probe paths equal the value-level nested-loop
    /// oracle: `evaluate_ucq_naive` (flat-table join + `probe_batch`) and
    /// the engine's chosen `DelayClin` strategy must both produce exactly
    /// the oracle's answer set on random instances.
    #[test]
    fn csr_and_batched_probes_match_value_level_naive((u, inst) in ucq_and_instance()) {
        let mut want: HashSet<Tuple> = HashSet::new();
        let mut schema_ok = true;
        for cq in u.cqs() {
            if value_level_cq(cq, &inst, &mut want).is_err() {
                schema_ok = false;
                break;
            }
        }
        let engine = UcqEngine::new(u.clone());
        if !schema_ok {
            // Arity clashes must surface as errors on the id paths too.
            prop_assert!(ucq_core::evaluate_ucq_naive(&u, &inst).is_err());
            return Ok(());
        }
        let got: HashSet<Tuple> =
            ucq_core::evaluate_ucq_naive(&u, &inst).unwrap().into_iter().collect();
        prop_assert_eq!(&got, &want, "batched naive vs value-level oracle");
        let via_engine: HashSet<Tuple> =
            engine.enumerate(&inst).unwrap().collect_all().into_iter().collect();
        prop_assert_eq!(&via_engine, &want, "strategy {:?} vs oracle", engine.strategy());
    }

    /// The id-level Theorem 12 pipeline equals the value-level nested-loop
    /// oracle on every random union that plans as free-connex: same answer
    /// set after dedup, no duplicates in the stream, and the spine's
    /// decode discipline holds (the value facade decodes each answer once):
    /// the extended members run Algorithm 1.
    #[test]
    fn id_pipeline_matches_value_level_oracle((u, inst) in ucq_and_instance()) {
        let Some(plan) = CostedSearch::prepare(&u, &SearchConfig::default()).map(|s| s.certificate()) else {
            return Ok(()); // not free-connex: the pipeline does not apply
        };
        let mut want: HashSet<Tuple> = HashSet::new();
        let mut schema_ok = true;
        for cq in u.cqs() {
            if value_level_cq(cq, &inst, &mut want).is_err() {
                schema_ok = false;
                break;
            }
        }
        let built = UcqPipelinePrep::prepare(&u, &plan, &inst, &CtxView::new());
        if !schema_ok {
            prop_assert!(built.is_err(), "arity clash must error on the id spine");
            return Ok(());
        }
        let engines = built.unwrap().engines().to_vec();
        let mut p = Algorithm1::from_engines(engines);
        let got = p.collect_all();
        let got_set: HashSet<Tuple> = got.iter().cloned().collect();
        prop_assert_eq!(got.len(), got_set.len(), "pipeline stream is duplicate-free");
        prop_assert_eq!(&got_set, &want, "id pipeline vs value-level oracle");
        prop_assert_eq!(p.rows_decoded(), got.len(), "decode exactly once per answer");
    }

    /// A frozen session equals the value-level nested-loop oracle: the
    /// freeze must preserve the answer set exactly (for every strategy,
    /// including the pre-materialized naive fallback), repeated frozen
    /// drains stay stable, and `decide` agrees with non-emptiness.
    #[test]
    fn frozen_session_matches_value_level_oracle((u, inst) in ucq_and_instance()) {
        let mut want: HashSet<Tuple> = HashSet::new();
        let mut schema_ok = true;
        for cq in u.cqs() {
            if value_level_cq(cq, &inst, &mut want).is_err() {
                schema_ok = false;
                break;
            }
        }
        let engine = UcqEngine::new(u);
        let session = engine.session(&inst);
        let frozen = match session.freeze() {
            // Arity clashes surface during freeze (it prepares) …
            Err(_) => {
                prop_assert!(!schema_ok, "freeze failed on a clean schema");
                return Ok(());
            }
            Ok(f) => f,
        };
        if !schema_ok {
            // … unless minimization dropped the clashing member entirely;
            // then the frozen stream must still equal the build-phase one.
            let build: HashSet<Tuple> =
                engine.enumerate(&inst).unwrap().collect_all().into_iter().collect();
            let got: HashSet<Tuple> =
                frozen.enumerate().unwrap().collect_all().into_iter().collect();
            prop_assert_eq!(&got, &build, "frozen vs build on minimized union");
            return Ok(());
        }
        for round in 0..2 {
            let got: HashSet<Tuple> =
                frozen.enumerate().unwrap().collect_all().into_iter().collect();
            prop_assert_eq!(
                &got, &want,
                "frozen round {} vs oracle ({:?})", round, frozen.strategy()
            );
        }
        prop_assert_eq!(frozen.decide().unwrap(), !want.is_empty());
    }

    /// The cost-based plan answers exactly like the certificate (the
    /// first-found plan) and the value-level nested-loop oracle: cost-based
    /// planning may change *which* providers materialize and in what
    /// order, never the answer set.
    #[test]
    fn costed_plan_matches_first_found_and_oracle((u, inst) in ucq_and_instance()) {
        let Some(search) = CostedSearch::prepare(&u, &SearchConfig::default()) else {
            return Ok(()); // not free-connex: neither plan exists
        };
        let first = search.certificate();
        let ctx = CtxView::new();
        let costed = search.plan(&inst, &ctx);
        prop_assert_eq!(costed.estimates.len(), costed.plan.atoms.len());

        let mut want: HashSet<Tuple> = HashSet::new();
        let mut schema_ok = true;
        for cq in u.cqs() {
            if value_level_cq(cq, &inst, &mut want).is_err() {
                schema_ok = false;
                break;
            }
        }
        let via_first = UcqPipelinePrep::prepare(&u, &first, &inst, &ctx);
        let via_costed = UcqPipelinePrep::prepare(&u, &costed.plan, &inst, &ctx);
        if !schema_ok {
            prop_assert!(via_first.is_err() && via_costed.is_err(), "arity clash errors on both");
            return Ok(());
        }
        let run = |prep: UcqPipelinePrep| Algorithm1::from_engines(prep.engines().to_vec());
        let first_set: HashSet<Tuple> =
            run(via_first.unwrap()).collect_all().into_iter().collect();
        let costed_answers = run(via_costed.unwrap()).collect_all();
        let costed_set: HashSet<Tuple> = costed_answers.iter().cloned().collect();
        prop_assert_eq!(costed_answers.len(), costed_set.len(), "costed stream duplicate-free");
        prop_assert_eq!(&costed_set, &want, "costed plan vs value-level oracle");
        prop_assert_eq!(&costed_set, &first_set, "costed plan vs first-found plan");
    }

    /// Repeated session evaluations agree with the one-shot path.
    #[test]
    fn session_matches_oneshot((u, inst) in ucq_and_instance()) {
        let engine = UcqEngine::new(u);
        let Ok(reference) = engine.enumerate_naive(&inst) else { return Ok(()); };
        let want: HashSet<Tuple> = reference.into_iter().collect();
        let session = engine.session(&inst);
        for round in 0..2 {
            let got: HashSet<Tuple> =
                session.enumerate().unwrap().collect_all().into_iter().collect();
            prop_assert_eq!(&got, &want, "session round {}", round);
        }
        prop_assert_eq!(session.decide().unwrap(), !want.is_empty());
    }
}

//! Property tests: the CDY engine agrees with the naive evaluator on random
//! queries and instances, produces no duplicates, and its membership test
//! matches the answer set.

use proptest::prelude::*;
use std::collections::HashSet;
use ucq_query::Cq;
use ucq_storage::{Instance, Relation, Tuple, Value};
use ucq_yannakakis::{evaluate_cq_naive, CdyEngine};

/// A random CQ description: atoms over variables `v0..v5` plus a head.
#[derive(Debug, Clone)]
struct RandomQuery {
    cq: Cq,
}

fn arb_query() -> impl Strategy<Value = RandomQuery> {
    // 1..4 atoms, each over 1..3 variables out of six.
    let atom = proptest::collection::vec(0..6u32, 1..=3);
    (
        proptest::collection::vec(atom, 1..=4),
        proptest::collection::vec(proptest::bool::ANY, 6),
    )
        .prop_filter_map("valid query", |(atoms, head_bits)| {
            let var_names = ["a", "b", "c", "d", "e", "f"];
            let used: HashSet<u32> = atoms.iter().flatten().copied().collect();
            let head: Vec<&str> = (0..6u32)
                .filter(|v| head_bits[*v as usize] && used.contains(v))
                .map(|v| var_names[v as usize])
                .collect();
            let atom_specs: Vec<(String, Vec<&str>)> = atoms
                .iter()
                .enumerate()
                .map(|(i, args)| {
                    (
                        format!("R{i}"),
                        args.iter().map(|&v| var_names[v as usize]).collect(),
                    )
                })
                .collect();
            let atom_refs: Vec<(&str, &[&str])> = atom_specs
                .iter()
                .map(|(n, a)| (n.as_str(), a.as_slice()))
                .collect();
            Cq::build("Q", &head, &atom_refs)
                .ok()
                .map(|cq| RandomQuery { cq })
        })
}

/// A random instance for a query: every relation gets up to 16 tuples over a
/// small domain so joins actually hit.
fn arb_instance(cq: &Cq) -> impl Strategy<Value = Instance> {
    let specs: Vec<(String, usize)> = cq
        .atoms()
        .iter()
        .map(|a| (a.rel.clone(), a.args.len()))
        .collect();
    let mut strategies = Vec::new();
    for (name, arity) in specs {
        let rows = proptest::collection::vec(proptest::collection::vec(0i64..4, arity), 0..16);
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

fn query_and_instance() -> impl Strategy<Value = (RandomQuery, Instance)> {
    arb_query().prop_flat_map(|rq| {
        let inst = arb_instance(&rq.cq);
        (Just(rq), inst)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cdy_matches_naive_on_free_connex((rq, inst) in query_and_instance()) {
        prop_assume!(rq.cq.is_free_connex());
        let naive: HashSet<Tuple> =
            evaluate_cq_naive(&rq.cq, &inst).unwrap().into_iter().collect();
        let eng = CdyEngine::for_query(&rq.cq, &inst).unwrap();
        let answers = eng.iter().collect_all();
        let set: HashSet<Tuple> = answers.iter().cloned().collect();
        prop_assert_eq!(answers.len(), set.len(), "CDY must not emit duplicates");
        prop_assert_eq!(&set, &naive, "CDY answer set must equal naive for {}", rq.cq);
        prop_assert_eq!(eng.decide(), !naive.is_empty());
    }

    #[test]
    fn membership_matches_answer_set((rq, inst) in query_and_instance()) {
        prop_assume!(rq.cq.is_free_connex());
        let naive: HashSet<Tuple> =
            evaluate_cq_naive(&rq.cq, &inst).unwrap().into_iter().collect();
        let eng = CdyEngine::for_query(&rq.cq, &inst).unwrap();
        for t in &naive {
            prop_assert!(eng.contains(t), "answer {} must test positive", t);
        }
        // Some near-miss tuples.
        for t in naive.iter().take(4) {
            let mut vals = t.values().to_vec();
            if !vals.is_empty() {
                vals[0] = Value::Int(99);
                let probe = Tuple::from(vals);
                prop_assert_eq!(eng.contains(&probe), naive.contains(&probe));
            }
        }
    }

    #[test]
    fn projection_mode_matches_reheaded_naive((rq, inst) in query_and_instance()) {
        // Choose S = all variables (always S-connex for acyclic queries) and
        // compare against the naive evaluation with a full head.
        prop_assume!(rq.cq.is_acyclic());
        let s = rq.cq.hypergraph().covered_vertices();
        let full_head: Vec<u32> = s.iter().collect();
        let reheaded = rq.cq.with_head(full_head).unwrap();
        let naive: HashSet<Tuple> =
            evaluate_cq_naive(&reheaded, &inst).unwrap().into_iter().collect();
        let eng = CdyEngine::for_projection(&rq.cq, s, &inst).unwrap();
        let set: HashSet<Tuple> = eng.iter().collect_all().into_iter().collect();
        prop_assert_eq!(set, naive);
    }

    #[test]
    fn full_binding_extensions_are_homomorphisms((rq, inst) in query_and_instance()) {
        prop_assume!(rq.cq.is_free_connex());
        let eng = CdyEngine::for_query(&rq.cq, &inst).unwrap();
        let mut it = eng.iter();
        let mut count = 0;
        while let Some((_t, binding)) = it.next_with_full_binding() {
            count += 1;
            if count > 64 { break; }
            // The binding must satisfy every atom.
            for atom in rq.cq.atoms() {
                let row: Vec<Value> =
                    atom.args.iter().map(|&v| binding[v as usize]).collect();
                let stored = inst.get(&atom.rel).cloned().unwrap_or_else(|| Relation::new(atom.args.len()));
                prop_assert!(
                    stored.contains_row(&row),
                    "witness row {:?} missing from {}", row, atom.rel
                );
            }
        }
    }
}

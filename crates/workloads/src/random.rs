//! Random instance generation for queries, and random free-connex unions
//! for the differential tests of the Theorem 4 arm.
//!
//! Uniform tuples over a bounded domain: with `rows` tuples per relation and
//! domain size `Θ(rows / join_factor)`, multi-way joins have plentiful but
//! not explosive matches — the regime the delay experiments need.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use ucq_query::{Cq, Ucq};
use ucq_storage::{Instance, Relation, Value};

/// Parameters for [`random_instance`].
#[derive(Clone, Copy, Debug)]
pub struct InstanceSpec {
    /// Tuples per relation.
    pub rows_per_relation: usize,
    /// Domain size (values drawn uniformly from `0..domain`).
    pub domain: i64,
    /// RNG seed (generation is deterministic given the spec).
    pub seed: u64,
}

impl InstanceSpec {
    /// A spec whose domain scales as `rows / 4` — dense enough for joins to
    /// produce output at every size.
    pub fn scaled(rows_per_relation: usize, seed: u64) -> InstanceSpec {
        InstanceSpec {
            rows_per_relation,
            domain: (rows_per_relation as i64 / 4).max(4),
            seed,
        }
    }
}

/// Generates an instance for every relation mentioned in `ucq`.
///
/// Panics if the union uses one relation name with two different arities.
pub fn random_instance(ucq: &Ucq, spec: &InstanceSpec) -> Instance {
    let mut arities: HashMap<&str, usize> = HashMap::new();
    for cq in ucq.cqs() {
        for atom in cq.atoms() {
            let prev = arities.insert(atom.rel.as_str(), atom.args.len());
            if let Some(p) = prev {
                assert_eq!(
                    p,
                    atom.args.len(),
                    "inconsistent arity for relation {}",
                    atom.rel
                );
            }
        }
    }
    let mut names: Vec<&str> = arities.keys().copied().collect();
    names.sort_unstable();

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut inst = Instance::new();
    for name in names {
        let arity = arities[name];
        let mut rel = Relation::with_capacity(arity, spec.rows_per_relation);
        let mut row = vec![Value::Int(0); arity];
        for _ in 0..spec.rows_per_relation {
            for slot in row.iter_mut() {
                *slot = Value::Int(rng.gen_range(0..spec.domain));
            }
            rel.push_row(&row);
        }
        rel.sort_dedup();
        inst.insert(name, rel);
    }
    inst
}

/// The relation pool of [`random_free_connex_union`], with the arity each
/// name keeps across members (so one instance serves the whole union).
const POOL: [(&str, usize); 5] = [("R0", 2), ("R1", 2), ("R2", 3), ("R3", 1), ("R4", 2)];
const VARS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// A random union of `members` free-connex CQs with `head_arity` head
/// positions each (0 gives a Boolean union), deterministic in `seed`.
///
/// Members have one to three atoms over a shared pool of relations (so they
/// overlap), atoms may repeat a variable, and head positions are drawn with
/// replacement from the member's variables (so heads repeat variables too).
/// Candidates are drawn until one is free-connex; a single atom always is.
pub fn random_free_connex_union(seed: u64, members: usize, head_arity: usize) -> Ucq {
    let mut rng = StdRng::seed_from_u64(seed);
    let cqs = (0..members)
        .map(|m| loop {
            let n_atoms = rng.gen_range(1usize..=3);
            let atoms: Vec<(&str, Vec<&str>)> = (0..n_atoms)
                .map(|_| {
                    let (rel, arity) = POOL[rng.gen_range(0..POOL.len())];
                    let args = (0..arity).map(|_| VARS[rng.gen_range(0..VARS.len())]);
                    (rel, args.collect())
                })
                .collect();
            let used: Vec<&str> = atoms.iter().flat_map(|(_, a)| a.iter().copied()).collect();
            let head: Vec<&str> = (0..head_arity)
                .map(|_| used[rng.gen_range(0..used.len())])
                .collect();
            let refs: Vec<(&str, &[&str])> = atoms.iter().map(|(r, a)| (*r, &a[..])).collect();
            let cq =
                Cq::build(&format!("Q{m}"), &head, &refs).expect("well-formed by construction");
            if cq.is_free_connex() {
                break cq;
            }
        })
        .collect();
    Ucq::new(cqs).expect("members share one head arity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_query::parse_ucq;

    #[test]
    fn random_unions_are_free_connex_and_deterministic() {
        for seed in 0..40 {
            let u = random_free_connex_union(seed, 2 + seed as usize % 3, seed as usize % 4);
            assert_eq!(u.len(), 2 + seed as usize % 3);
            assert!(u.cqs().iter().all(|cq| cq.is_free_connex()));
            assert_eq!(u.head_arity(), seed as usize % 4);
            let again = random_free_connex_union(seed, u.len(), u.head_arity());
            assert_eq!(format!("{u:?}"), format!("{again:?}"));
            random_instance(&u, &InstanceSpec::scaled(8, seed)); // one arity per name
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let u = parse_ucq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let spec = InstanceSpec {
            rows_per_relation: 100,
            domain: 20,
            seed: 7,
        };
        let a = random_instance(&u, &spec);
        let b = random_instance(&u, &spec);
        assert_eq!(a.get("R").unwrap().len(), b.get("R").unwrap().len());
        assert_eq!(
            a.get("R").unwrap().iter_rows().collect::<Vec<_>>(),
            b.get("R").unwrap().iter_rows().collect::<Vec<_>>()
        );
    }

    #[test]
    fn covers_all_relations_with_right_arities() {
        let u = parse_ucq("Q(x, y) <- R(x, z), S(z, y), T(x, y, z)").unwrap();
        let inst = random_instance(&u, &InstanceSpec::scaled(50, 1));
        assert_eq!(inst.get("R").unwrap().arity(), 2);
        assert_eq!(inst.get("T").unwrap().arity(), 3);
        assert!(inst.get("R").unwrap().len() <= 50);
    }

    #[test]
    fn joins_produce_output_at_scaled_density() {
        let u = parse_ucq("Q(x, z, y) <- R(x, z), S(z, y)").unwrap();
        let inst = random_instance(&u, &InstanceSpec::scaled(512, 42));
        let answers = ucq_core::evaluate_ucq_naive(&u, &inst).expect("evaluates");
        assert!(!answers.is_empty(), "scaled spec must produce join output");
    }

    #[test]
    #[should_panic(expected = "inconsistent arity")]
    fn inconsistent_arity_panics() {
        let u = parse_ucq("Q1(x) <- R(x, y)\nQ2(a) <- R(a)").unwrap();
        random_instance(&u, &InstanceSpec::scaled(10, 0));
    }
}

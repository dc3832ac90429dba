//! Random instance generation for queries, and random unions for the
//! differential tests of the two tractable arms: free-connex unions for
//! Theorem 4's, union-extension ones for Theorem 12's.
//!
//! Uniform tuples over a bounded domain: with `rows` tuples per relation and
//! domain size `Θ(rows / join_factor)`, multi-way joins have plentiful but
//! not explosive matches — the regime the delay experiments need.

use crate::catalog::catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use ucq_core::{Strategy, UcqEngine};
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
            let cq = random_cq(&mut rng, m, head_arity);
            if cq.is_free_connex() {
                break cq;
            }
        })
        .collect();
    Ucq::new(cqs).expect("members share one head arity")
}

/// A random union that runs on the Theorem 12 arm: free-connex as a union,
/// yet with a member that is not free-connex on its own, so that Lemma 8
/// has a virtual relation to materialize. Deterministic in `seed`.
///
/// Such unions are too rare among [`random_free_connex_union`]'s draws to
/// sample for, so this perturbs one of the catalog's union-extension
/// entries instead: relations renamed (two of one arity now and then
/// merged into a self-join), head positions permuted and sometimes one
/// repeated, a unary filter on one member's head variable, an extra
/// free-connex member. Draws repeat until the result is still on the arm.
pub fn random_union_extension(seed: u64) -> Ucq {
    let bases: Vec<Ucq> = catalog()
        .into_iter()
        .map(|e| e.ucq)
        .filter(on_the_extension_arm)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let u = perturb(&bases[rng.gen_range(0..bases.len())], &mut rng);
        if on_the_extension_arm(&u) {
            return u;
        }
    }
}

fn on_the_extension_arm(u: &Ucq) -> bool {
    !u.cqs().iter().all(Cq::is_free_connex)
        && UcqEngine::new(u.clone()).strategy() == Strategy::UnionExtension
}

/// One draw of [`random_union_extension`]'s perturbations of `u`.
fn perturb(u: &Ucq, rng: &mut StdRng) -> Ucq {
    let mut renamed: HashMap<&str, String> = HashMap::new();
    let mut per_arity: HashMap<usize, usize> = HashMap::new();
    for atom in u.cqs().iter().flat_map(Cq::atoms) {
        renamed.entry(atom.rel.as_str()).or_insert_with(|| {
            let arity = atom.args.len();
            let fresh = per_arity.entry(arity).or_default();
            let k = if rng.gen_bool(0.2) {
                rng.gen_range(0..=*fresh)
            } else {
                *fresh
            };
            *fresh += 1;
            format!("N{arity}_{k}")
        });
    }
    let mut positions: Vec<usize> = (0..u.head_arity()).collect();
    for i in (1..positions.len()).rev() {
        positions.swap(i, rng.gen_range(0..=i));
    }
    if !positions.is_empty() && rng.gen_bool(0.3) {
        positions.push(positions[rng.gen_range(0..positions.len())]);
    }
    let filtered = rng.gen_bool(0.3).then(|| rng.gen_range(0..u.len()));
    let mut cqs: Vec<Cq> = u
        .cqs()
        .iter()
        .enumerate()
        .map(|(m, cq)| {
            let name = |v| cq.var_name(v);
            let head: Vec<&str> = positions.iter().map(|&p| name(cq.head()[p])).collect();
            let mut atoms: Vec<(&str, Vec<&str>)> = cq
                .atoms()
                .iter()
                .map(|a| {
                    (
                        renamed[a.rel.as_str()].as_str(),
                        a.args.iter().map(|&v| name(v)).collect(),
                    )
                })
                .collect();
            if filtered == Some(m) && !head.is_empty() {
                atoms.push(("F", vec![head[rng.gen_range(0..head.len())]]));
            }
            let refs: Vec<(&str, &[&str])> = atoms.iter().map(|(r, a)| (*r, &a[..])).collect();
            Cq::build(&format!("Q{m}"), &head, &refs).expect("renamed from a well-formed member")
        })
        .collect();
    if rng.gen_bool(0.3) {
        let m = cqs.len();
        cqs.push(loop {
            let cq = random_cq(rng, m, positions.len());
            if cq.is_free_connex() {
                break cq;
            }
        });
    }
    Ucq::new(cqs).expect("members share one head arity")
}

/// One member `Q{m}` for the generators above: one to three atoms over
/// [`POOL`], `head_arity` head positions drawn from its variables.
fn random_cq(rng: &mut StdRng, m: usize, head_arity: usize) -> Cq {
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
    Cq::build(&format!("Q{m}"), &head, &refs).expect("well-formed by construction")
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
    fn union_extensions_stay_on_the_arm_and_vary() {
        let mut shapes = std::collections::HashSet::new();
        let mut self_joins = 0;
        for seed in 0..40 {
            let u = random_union_extension(seed);
            assert!(on_the_extension_arm(&u), "seed {seed}: {u:?}");
            let again = random_union_extension(seed);
            assert_eq!(format!("{u:?}"), format!("{again:?}"));
            shapes.insert(u.fingerprint());
            self_joins += usize::from(!u.is_self_join_free());
            random_instance(&u, &InstanceSpec::scaled(8, seed)); // one arity per name
        }
        assert!(shapes.len() >= 30, "only {} distinct unions", shapes.len());
        assert!(self_joins >= 4, "only {self_joins} unions with a self-join");
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

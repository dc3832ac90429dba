//! Provided variable sets (Definition 7) and their fixpoint closure.
//!
//! `Q2` *provides* `V1 ⊆ var(Q1)` to `Q1` when (1) a body-homomorphism
//! `h : Q2 → Q1` exists, (2) some `V2 ⊆ free(Q2)` has `h(V2) = V1`, and
//! (3) `Q2` is `S`-connex for some `V2 ⊆ S ⊆ free(Q2)`. Folding (2) into
//! (3): **the sets `Q2` can provide along `h` are exactly the subsets of
//! `h(S)` over the `S ⊆ free(Q2)` for which `Q2` is `S`-connex** — so we
//! track maximal provided sets and take subsets for free. Maximal *per
//! provider choice*: every provider of a set is kept, because the one
//! table serves both the classifier (which needs some provider, and takes
//! the earliest) and the cost-based planner (which prices them all).
//!
//! Union extensions make this recursive (Definition 10): a provider may
//! itself be extended by already-available virtual atoms, which can unlock
//! new `S`-connexities (Example 13). Two structural facts keep the
//! recursion sound:
//!
//! * the body-homomorphism of condition (1) is only required on the
//!   provider's *original* atoms — a virtual atom `P(ū)` of the provider is
//!   satisfied automatically because its materialized content contains
//!   `π_ū(hom(body))` by induction;
//! * provenance stages are strictly increasing (the fixpoint snapshots the
//!   availability at each round), so materialization order is well-founded.

use crate::search::{prune_pool, ConnexOracle, HOM_CAP, MAX_ROUNDS};
use ucq_hypergraph::{subsets_of, VSet};
use ucq_query::{body_homomorphisms, Ucq, VarMap};

/// Why a variable set is available: who provides it and how.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Index of the providing CQ in the union.
    pub provider: usize,
    /// Body-homomorphism from the provider's variables to the target's.
    pub hom: VarMap,
    /// The `S ⊆ free(provider)` whose connex subtree is enumerated.
    pub s: VSet,
    /// Virtual atoms (in provider space) the provider needs for
    /// `S`-connexity — empty when the original provider is `S`-connex.
    pub uses: Vec<VSet>,
    /// Fixpoint round at which this entry was derived; `uses` entries are
    /// always resolvable at strictly smaller stages.
    pub stage: usize,
}

/// The availability table: per target CQ, provided variable sets with a
/// provenance each (the maximal ones plus earlier-stage entries they cover,
/// kept for well-founded resolution). Subsets of an entry are provided by
/// the same provenance.
#[derive(Clone, Debug, Default)]
pub struct Availability {
    /// `max_sets[i]` = provided sets for CQ `i`, in derivation order; no
    /// entry is covered by an earlier one from the same provider choice.
    pub max_sets: Vec<Vec<(VSet, Provenance)>>,
}

impl Availability {
    /// The candidate virtual-atom pool for CQ `i`: all subsets (size ≥ 2)
    /// of its maximal provided sets, pruned against the query's own edges.
    pub fn pool_for(&self, i: usize, base: &ucq_hypergraph::Hypergraph) -> Vec<VSet> {
        let mut pool: Vec<VSet> = Vec::new();
        for (max, _) in &self.max_sets[i] {
            pool.extend(subsets_of(*max).filter(|s| s.len() >= 2));
        }
        prune_pool(base, &pool)
    }

    /// Finds the provenance justifying atom `vars` for CQ `i`: the
    /// earliest-stage maximal entry containing it.
    pub fn resolve(&self, i: usize, vars: VSet) -> Option<&Provenance> {
        self.max_sets[i]
            .iter()
            .filter(|(max, _)| vars.is_subset(*max))
            .min_by_key(|(_, p)| p.stage)
            .map(|(_, p)| p)
    }

    /// All provenances that can justify atom `vars` for CQ `i`, earliest
    /// stage first (ties keep derivation order). The cost-based planner
    /// scores these alternatives and picks the cheapest; entry 0 after the
    /// stage sort is what [`Availability::resolve`] returns.
    pub fn resolve_all(&self, i: usize, vars: VSet) -> Vec<&Provenance> {
        let mut all: Vec<&Provenance> = self.max_sets[i]
            .iter()
            .filter(|(max, _)| vars.is_subset(*max))
            .map(|(_, p)| p)
            .collect();
        all.sort_by_key(|p| p.stage);
        all
    }
}

/// Computes the availability fixpoint for a union. Alternative providers
/// of the same set survive as separate entries, so
/// [`Availability::resolve_all`] has something to price; the earliest
/// entry covering a set is the one [`Availability::resolve`] picks.
pub fn compute_availability(ucq: &Ucq, oracle: &mut ConnexOracle) -> Availability {
    let n = ucq.len();
    let hypergraphs: Vec<_> = ucq.cqs().iter().map(|q| q.hypergraph()).collect();
    // Body-homomorphisms are between original queries only; compute once.
    let homs: Vec<Vec<Vec<VarMap>>> = (0..n)
        .map(|j| {
            (0..n)
                .map(|i| body_homomorphisms(&ucq.cqs()[j], &ucq.cqs()[i], HOM_CAP))
                .collect()
        })
        .collect();

    let mut avail = Availability {
        max_sets: vec![Vec::new(); n],
    };
    for stage in 0..MAX_ROUNDS {
        // Snapshot: all derivations this round use last round's availability,
        // keeping provenance stages strictly well-founded.
        let snapshot = avail.clone();
        let mut changed = false;
        for j in 0..n {
            let free_j = ucq.cqs()[j].free();
            let pool_j = snapshot.pool_for(j, &hypergraphs[j]);
            for s in subsets_of(free_j) {
                if s.len() < 2 {
                    continue; // provided sets below two variables are useless
                }
                let Some(uses) = oracle.find_extension(&hypergraphs[j], s, &pool_j) else {
                    continue;
                };
                for (i, homs_ji) in homs[j].iter().enumerate() {
                    for hom in homs_ji {
                        let image: VSet = s.iter().map(|v| hom[v as usize]).collect();
                        if image.len() < 2 {
                            continue;
                        }
                        if add_provider(
                            &mut avail.max_sets[i],
                            image,
                            Provenance {
                                provider: j,
                                hom: hom.clone(),
                                s,
                                uses: uses.clone(),
                                stage,
                            },
                        ) {
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    avail
}

/// Inserts `set` unless an entry from the **same provider choice**
/// (provider, connex target `S`) already covers it — alternative providers
/// of the same set survive as separate entries so the cost-based planner
/// can choose among them ([`Availability::resolve_all`]). A set an earlier
/// entry covers never displaces that entry as [`Availability::resolve`]'s
/// pick: entries are appended in stage order, and `resolve` keeps the
/// first of the earliest stage. Covered (subset) entries are *kept*: they
/// carry earlier-stage provenances that later derivations' `uses` may
/// depend on for well-founded materialization order. Returns whether
/// anything changed; the key space `(set, provider, S)` is finite, so the
/// fixpoint terminates.
fn add_provider(entries: &mut Vec<(VSet, Provenance)>, set: VSet, prov: Provenance) -> bool {
    if entries
        .iter()
        .any(|(e, p)| set.is_subset(*e) && p.provider == prov.provider && p.s == prov.s)
    {
        return false;
    }
    entries.push((set, prov));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_query::parse_ucq;

    fn vs(v: &[u32]) -> VSet {
        v.iter().copied().collect()
    }

    #[test]
    fn example2_availability() {
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let mut oracle = ConnexOracle::default();
        let avail = compute_availability(&u, &mut oracle);
        // Q2 provides {x, z, y} (q1 space: x=0, y=1, w=2, z=3) to Q1.
        let target = vs(&[0, 3, 1]);
        let entry = avail.resolve(0, target).expect("Q2 provides {x,z,y}");
        assert_eq!(entry.provider, 1);
        assert!(entry.uses.is_empty());
        assert_eq!(entry.s, vs(&[0, 1, 2])); // all of free(Q2)
    }

    #[test]
    fn example9_no_availability_for_q1() {
        // The R4 atom kills the body-homomorphism, so nothing useful is
        // provided to Q1.
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w), R4(y)",
        )
        .unwrap();
        let mut oracle = ConnexOracle::default();
        let avail = compute_availability(&u, &mut oracle);
        assert!(avail.resolve(0, vs(&[0, 3, 1])).is_none());
    }

    #[test]
    fn example13_recursive_availability() {
        // All three CQs are individually intractable, yet the fixpoint
        // derives free-connex-enabling atoms for Q1 via extended providers.
        let u = parse_ucq(
            "Q1(x, y, v, u) <- R1(x, z1), R2(z1, z2), R3(z2, z3), R4(z3, y), R5(y, v, u)\n\
             Q2(x, y, v, u) <- R1(x, y), R2(y, v), R3(v, z1), R4(z1, u), R5(u, t1, t2)\n\
             Q3(x, y, v, u) <- R1(x, z1), R2(z1, y), R3(y, v), R4(v, u), R5(u, t1, t2)",
        )
        .unwrap();
        let mut oracle = ConnexOracle::default();
        let avail = compute_availability(&u, &mut oracle);
        // Q1 space: x=0,y=1,v=2,u=3,z1=4,z2=5,z3=6.
        // The paper derives {x,z1,z2,y} and {x,z2,z3,y} for Q1.
        let a1 = avail.resolve(0, vs(&[0, 4, 5, 1]));
        let a2 = avail.resolve(0, vs(&[0, 5, 6, 1]));
        assert!(a1.is_some(), "Q2+ provides {{x,z1,z2,y}}");
        assert!(a2.is_some(), "Q3+ provides {{x,z2,z3,y}}");
        // At least one of them requires a recursive (extended) provider.
        let recursive = a1.unwrap().uses.len() + a2.unwrap().uses.len();
        assert!(recursive > 0, "Example 13 needs recursion");
        // Well-foundedness: a provenance with uses must sit at stage >= 1.
        for p in [a1.unwrap(), a2.unwrap()] {
            if !p.uses.is_empty() {
                assert!(p.stage >= 1);
                for &u_atom in &p.uses {
                    let up = avail.resolve(p.provider, u_atom).expect("use resolvable");
                    assert!(up.stage < p.stage, "uses must come from earlier stages");
                }
            }
        }
    }

    #[test]
    fn add_provider_dedups_per_provider_choice() {
        let prov = |provider: usize, s: VSet, st: usize| Provenance {
            provider,
            hom: vec![],
            s,
            uses: vec![],
            stage: st,
        };
        let s0 = vs(&[0, 1]);
        let mut entries = Vec::new();
        assert!(add_provider(&mut entries, vs(&[0, 1]), prov(0, s0, 0)));
        assert!(
            !add_provider(&mut entries, vs(&[0, 1]), prov(0, s0, 1)),
            "same provider choice, same set: duplicate"
        );
        assert!(
            !add_provider(&mut entries, vs(&[0]), prov(0, s0, 1)),
            "same provider choice, subset: covered"
        );
        assert!(
            add_provider(&mut entries, vs(&[0, 1]), prov(1, s0, 0)),
            "alternative provider for the same set is kept"
        );
        assert!(
            add_provider(&mut entries, vs(&[0, 1, 2]), prov(0, s0, 1)),
            "superset"
        );
        // The covered earlier entry survives so its (earlier) stage remains
        // resolvable for dependent provenances.
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[2].0, vs(&[0, 1, 2]));
    }

    #[test]
    fn resolve_all_orders_by_stage_and_leads_with_resolve() {
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let mut oracle = ConnexOracle::default();
        let avail = compute_availability(&u, &mut oracle);
        let target = vs(&[0, 3, 1]);
        let all = avail.resolve_all(0, target);
        assert!(!all.is_empty());
        let first = avail.resolve(0, target).unwrap();
        assert_eq!(all[0].provider, first.provider);
        assert_eq!(all[0].s, first.s);
        assert!(all.windows(2).all(|w| w[0].stage <= w[1].stage));
    }
}

//! Free-connex union-extension plans (Definitions 10 and 11).
//!
//! A UCQ is *free-connex* when every member has a free-connex union
//! extension. [`CostedSearch`](crate::CostedSearch) decides this (within
//! the search bounds) and, on success, yields an [`ExtensionPlan`]: an
//! executable certificate naming the virtual atoms each member's
//! evaluation uses, plus a well-founded materialization schedule with one
//! [`Provenance`] per atom. The classifier's certificate and the engine's
//! costed plans are both scheduled here, by `schedule_plan`.

use crate::provides::{Availability, Provenance};
use std::collections::HashMap;
use ucq_hypergraph::VSet;
use ucq_query::{Atom, Cq, Ucq};
use ucq_storage::fx_hash_of;

/// One virtual atom scheduled for materialization.
#[derive(Clone, Debug)]
pub struct PlannedAtom {
    /// The CQ (index in the union) whose extension carries this atom.
    pub target: usize,
    /// The atom's variables, in the target's variable space.
    pub vars: VSet,
    /// Fresh relation symbol for the materialized content.
    pub rel_name: String,
    /// How to fill it (Lemma 8).
    pub provenance: Provenance,
}

impl PlannedAtom {
    /// The atom as it appears in the extended query (arguments sorted by
    /// variable id, matching the materialized column order).
    pub fn as_atom(&self) -> Atom {
        Atom {
            rel: self.rel_name.clone(),
            args: self.vars.iter().collect(),
        }
    }
}

/// A free-connex certificate for a whole UCQ.
#[derive(Clone, Debug, Default)]
pub struct ExtensionPlan {
    /// Atoms in materialization order (dependencies first).
    pub atoms: Vec<PlannedAtom>,
    /// Per member: the variable sets of the virtual atoms its final
    /// free-connex evaluation uses (possibly empty).
    pub chosen: Vec<Vec<VSet>>,
}

impl ExtensionPlan {
    /// Whether the plan needs any union extension at all (false = all
    /// members are free-connex on their own, the Theorem 4 case).
    pub fn needs_extension(&self) -> bool {
        !self.atoms.is_empty()
    }

    /// The extended query for member `i` (the member itself when no atoms
    /// were chosen for it).
    pub fn extended_query(&self, ucq: &Ucq, i: usize) -> Cq {
        let extra: Vec<Atom> = self.chosen[i]
            .iter()
            .map(|&vars| self.atom_for(i, vars).as_atom())
            .collect();
        if extra.is_empty() {
            ucq.cqs()[i].clone()
        } else {
            ucq.cqs()[i].with_extra_atoms(&extra)
        }
    }

    /// Looks up the planned atom `(target, vars)`.
    pub fn atom_for(&self, target: usize, vars: VSet) -> &PlannedAtom {
        self.atoms
            .iter()
            .find(|a| a.target == target && a.vars == vars)
            .expect("chosen atoms are always planned")
    }
}

/// The materialized-relation name for planned atom `(target, vars)` filled
/// by `prov`. The name is derived from the plan's full dedup key — target,
/// variable set, *and* a hash of the provenance (provider, homomorphism,
/// connex set, uses) — so two plans over the same union that pick different
/// providers for the same atom can never alias in a shared instance or
/// context. (The old `@prov_{target}_{vars}` scheme collided exactly there.)
fn planned_rel_name(target: usize, vars: VSet, prov: &Provenance) -> String {
    let sig = fx_hash_of(&(prov.provider, &prov.hom, prov.s, &prov.uses));
    format!("@prov_{target}_{:x}_{sig:016x}", vars.0)
}

/// Builds the executable plan from per-member chosen atom sets: schedules
/// materializations dependency-first and attaches a provenance to each.
///
/// `overrides` substitutes the provenance for specific *top-level* keys
/// (the cost-based planner's cheaper provider picks); dependencies inside
/// the DFS always follow [`Availability::resolve`], whose strictly
/// decreasing stages guarantee a well-founded order. An override whose own
/// dependency closure needs the overridden key is dropped back to
/// `resolve` (see [`sanitize_overrides`]), so by the time we get here every
/// dependency edge is resolve-backed and acyclic.
pub(crate) fn schedule_plan(
    avail: &Availability,
    chosen: Vec<Vec<VSet>>,
    overrides: &HashMap<(usize, VSet), Provenance>,
) -> ExtensionPlan {
    let prov_of = |key: (usize, VSet), top: bool| -> Provenance {
        if top {
            if let Some(p) = overrides.get(&key) {
                return p.clone();
            }
        }
        avail
            .resolve(key.0, key.1)
            .expect("planned atoms are always available")
            .clone()
    };

    // Schedule materializations: DFS over (target, vars) dependencies,
    // dependencies (the provenance's `uses`, in provider space) first.
    let mut order: Vec<((usize, VSet), Provenance)> = Vec::new();
    let mut seen: HashMap<(usize, VSet), ()> = HashMap::new();
    #[allow(clippy::type_complexity)]
    fn visit(
        key: (usize, VSet),
        top: bool,
        prov_of: &dyn Fn((usize, VSet), bool) -> Provenance,
        order: &mut Vec<((usize, VSet), Provenance)>,
        seen: &mut HashMap<(usize, VSet), ()>,
    ) {
        if seen.contains_key(&key) {
            return;
        }
        seen.insert(key, ());
        let prov = prov_of(key, top);
        for &u in &prov.uses {
            visit((prov.provider, u), false, prov_of, order, seen);
        }
        order.push((key, prov));
    }
    for (i, atoms) in chosen.iter().enumerate() {
        for &vars in atoms {
            visit((i, vars), true, &prov_of, &mut order, &mut seen);
        }
    }

    let atoms: Vec<PlannedAtom> = order
        .into_iter()
        .map(|((target, vars), provenance)| PlannedAtom {
            target,
            vars,
            rel_name: planned_rel_name(target, vars, &provenance),
            provenance,
        })
        .collect();

    ExtensionPlan { atoms, chosen }
}

/// Drops overrides that would break the well-founded schedule: a key that
/// some (possibly overridden) provenance reaches through its `resolve`-
/// backed dependency closure must itself be materialized with `resolve`,
/// or a dependency could be scheduled after its dependent. Iterates to a
/// fixed point because reverting an override only ever *shrinks* the
/// override set (closures are recomputed each round from scratch).
pub(crate) fn sanitize_overrides(
    avail: &Availability,
    overrides: &mut HashMap<(usize, VSet), Provenance>,
) {
    loop {
        // Dependency closure over resolve-backed edges, seeded with every
        // top-level provenance's direct uses.
        let mut frontier: Vec<(usize, VSet)> = overrides
            .values()
            .flat_map(|p| p.uses.iter().map(|&u| (p.provider, u)))
            .collect();
        let mut closure: HashMap<(usize, VSet), ()> = HashMap::new();
        while let Some(key) = frontier.pop() {
            if closure.contains_key(&key) {
                continue;
            }
            closure.insert(key, ());
            if let Some(p) = avail.resolve(key.0, key.1) {
                frontier.extend(p.uses.iter().map(|&u| (p.provider, u)));
            }
        }
        let conflicted: Vec<(usize, VSet)> = overrides
            .keys()
            .filter(|k| closure.contains_key(*k))
            .copied()
            .collect();
        if conflicted.is_empty() {
            return;
        }
        for k in conflicted {
            overrides.remove(&k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostedSearch, SearchConfig};
    use ucq_query::parse_ucq;

    fn certificate(u: &Ucq) -> Option<ExtensionPlan> {
        CostedSearch::prepare(u, &SearchConfig::default()).map(|s| s.certificate())
    }

    #[test]
    fn all_free_connex_needs_no_atoms() {
        let u = parse_ucq(
            "Q1(x, y) <- R(x, y)\n\
             Q2(x, y) <- S(x, z), T(z, y), U(x, z, y)",
        )
        .unwrap();
        let plan = certificate(&u).unwrap();
        assert!(!plan.needs_extension());
    }

    #[test]
    fn example2_plans_one_atom() {
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let plan = certificate(&u).unwrap();
        assert!(plan.needs_extension());
        assert_eq!(plan.chosen[1], vec![], "Q2 is already free-connex");
        assert_eq!(plan.chosen[0].len(), 1, "Q1 needs one virtual atom");
        let ext = plan.extended_query(&u, 0);
        assert!(ext.is_free_connex());
        assert_eq!(ext.atoms().len(), 4);
    }

    #[test]
    fn example13_plans_recursively() {
        let u = parse_ucq(
            "Q1(x, y, v, u) <- R1(x, z1), R2(z1, z2), R3(z2, z3), R4(z3, y), R5(y, v, u)\n\
             Q2(x, y, v, u) <- R1(x, y), R2(y, v), R3(v, z1), R4(z1, u), R5(u, t1, t2)\n\
             Q3(x, y, v, u) <- R1(x, z1), R2(z1, y), R3(y, v), R4(v, u), R5(u, t1, t2)",
        )
        .unwrap();
        let plan = certificate(&u).expect("Example 13 is a free-connex UCQ");
        for i in 0..3 {
            let ext = plan.extended_query(&u, i);
            assert!(
                ext.is_free_connex(),
                "member {i} extension must be free-connex"
            );
        }
        // Dependencies precede dependents in the schedule.
        for (pos, atom) in plan.atoms.iter().enumerate() {
            for &u_vars in &atom.provenance.uses {
                let dep_pos = plan
                    .atoms
                    .iter()
                    .position(|a| a.target == atom.provenance.provider && a.vars == u_vars)
                    .expect("dependency scheduled");
                assert!(dep_pos < pos, "dependency must be materialized first");
            }
        }
    }

    #[test]
    fn example20_has_no_plan() {
        // Body-isomorphic pair that is not free-path guarded (Example 20):
        // no free-connex union extension exists (Theorem 29).
        let u = parse_ucq(
            "Q1(x, y, v) <- R1(x, z), R2(z, y), R3(y, v), R4(v, w)\n\
             Q2(x, y, v) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)",
        )
        .unwrap();
        assert!(certificate(&u).is_none());
    }

    #[test]
    fn example21_plans_both_members() {
        // Example 21: same body as Example 20, bigger heads; both members
        // get a single virtual atom.
        let u = parse_ucq(
            "Q1(w, y, x, z) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)\n\
             Q2(x, y, w, v) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)",
        )
        .unwrap();
        let plan = certificate(&u).expect("Example 21 is free-connex");
        assert!(plan.needs_extension());
        for i in 0..2 {
            assert!(plan.extended_query(&u, i).is_free_connex());
        }
    }

    #[test]
    fn single_hard_cq_has_no_plan() {
        let u = parse_ucq("Q(x, y) <- A(x, z), B(z, y)").unwrap();
        assert!(certificate(&u).is_none());
    }
}

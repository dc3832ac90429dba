//! Cardinality estimation and cost-based plan selection.
//!
//! [`plan_free_connex`](crate::plan_free_connex) takes the *first* union
//! extension the search finds and the earliest-stage provider for every
//! virtual atom — correct, and the right certificate for instance-free
//! classification, but oblivious to how large each Lemma 8
//! materialization will be. [`plan_free_connex_costed`] keeps the same
//! search but scores the alternatives: up to
//! [`SearchConfig::max_plan_candidates`] extension sets per member, and
//! every resolvable provider per planned atom
//! ([`Availability::resolve_all`]), each priced by [`CostModel`] — a
//! textbook join-cardinality model over the per-relation statistics the
//! storage layer harvests from its CSR indexes ([`RelStats`]).
//!
//! The estimate for the materialized content of a planned atom (the
//! projection `π_S` of the provider's extended query, Lemma 8) is
//!
//! ```text
//! min( Π rows(atom)  /  Π_{v shared} maxdistinct(v)^(occ(v)-1),
//!      Π_{v ∈ S} mindistinct(v) )
//! ```
//!
//! with virtual atoms in the provider's own extension priced recursively
//! (memoized; provenance stages strictly decrease, so the recursion is
//! well-founded). On uniform statistics every alternative ties and the
//! costed plan degenerates to the first-found plan, so classification and
//! costed execution never disagree on *whether* a plan exists — only on
//! which one runs.

use crate::plan::{sanitize_overrides, schedule_plan, ExtensionPlan};
use crate::provides::{compute_availability_all, Availability, Provenance};
use crate::search::{ConnexOracle, SearchConfig};
use std::collections::HashMap;
use std::sync::Arc;
use ucq_hypergraph::VSet;
use ucq_query::{Cq, Ucq};
use ucq_storage::{CtxView, Instance, RelStats};

/// Join-cardinality estimator over one instance's statistics.
///
/// Borrow-shares the availability table with the planner; base-relation
/// stats are pulled through the context's [`RelStats`] cache (interning
/// the relation on first touch) and virtual-atom estimates are memoized
/// per `(target, vars)` key.
pub struct CostModel<'a> {
    ucq: &'a Ucq,
    avail: &'a Availability,
    instance: &'a Instance,
    ctx: &'a CtxView,
    base: HashMap<String, Option<Arc<RelStats>>>,
    virt: HashMap<(usize, VSet), f64>,
}

impl<'a> CostModel<'a> {
    /// A model over `instance`, reading stats through `ctx`'s caches.
    pub fn new(
        ucq: &'a Ucq,
        avail: &'a Availability,
        instance: &'a Instance,
        ctx: &'a CtxView,
    ) -> CostModel<'a> {
        CostModel {
            ucq,
            avail,
            instance,
            ctx,
            base: HashMap::new(),
            virt: HashMap::new(),
        }
    }

    /// Statistics for base relation `name`, or `None` when the instance
    /// has no such relation (its atoms match nothing).
    fn base_stats(&mut self, name: &str) -> Option<Arc<RelStats>> {
        if let Some(s) = self.base.get(name) {
            return s.clone();
        }
        let s = self.instance.get_shared(name).map(|rel| {
            let ids = self.ctx.interned_rel(&rel);
            self.ctx.rel_stats(&ids)
        });
        self.base.insert(name.to_string(), s.clone());
        s
    }

    /// Estimated row count of planned atom `(target, vars)` when filled by
    /// its default earliest-stage provenance ([`Availability::resolve`]) —
    /// the choice the scheduler makes for dependency atoms.
    pub fn est_atom(&mut self, target: usize, vars: VSet) -> f64 {
        if let Some(&e) = self.virt.get(&(target, vars)) {
            return e;
        }
        // Pessimistic placeholder so an unexpected resolution cycle costs
        // itself out instead of recursing forever.
        self.virt.insert((target, vars), f64::INFINITY);
        let avail = self.avail;
        let est = match avail.resolve(target, vars) {
            Some(p) => self.est_provenance(p),
            None => f64::INFINITY,
        };
        self.virt.insert((target, vars), est);
        est
    }

    /// Estimated materialized size of the relation `prov` would fill: the
    /// projection `π_S` over the provider's extended query (Lemma 8).
    pub fn est_provenance(&mut self, prov: &Provenance) -> f64 {
        self.est_projection(prov.provider, &prov.uses, prov.s)
    }

    /// Estimated size of `π_proj` over member `member` extended with the
    /// virtual atoms `extra` (variable sets in the member's own space).
    fn est_projection(&mut self, member: usize, extra: &[VSet], proj: VSet) -> f64 {
        let atoms = self.ucq.cqs()[member].atoms().to_vec();
        let mut facts: Vec<(f64, HashMap<u32, f64>)> = Vec::new();
        for atom in &atoms {
            let Some(stats) = self.base_stats(&atom.rel) else {
                return 0.0; // missing relation: the member yields nothing
            };
            let rows = stats.rows as f64;
            let mut d: HashMap<u32, f64> = HashMap::new();
            for (c, &v) in atom.args.iter().enumerate() {
                let dc = stats.distinct.get(c).copied().unwrap_or(0) as f64;
                // A variable repeated inside one atom keeps its tightest
                // column's distinct count.
                d.entry(v).and_modify(|e| *e = e.min(dc)).or_insert(dc);
            }
            facts.push((rows, d));
        }
        for &u in extra {
            let rows = self.est_atom(member, u);
            // A materialized atom's per-column distinct count is bounded by
            // its row count; nothing tighter is known without building it.
            let d: HashMap<u32, f64> = u.iter().map(|v| (v, rows)).collect();
            facts.push((rows, d));
        }
        join_projection_estimate(&facts, proj)
    }
}

/// The cardinality model proper: estimated size of a projection over a
/// join, from per-atom `(rows, var → distinct)` facts.
fn join_projection_estimate(facts: &[(f64, HashMap<u32, f64>)], proj: VSet) -> f64 {
    if facts.is_empty() || facts.iter().any(|(r, _)| *r == 0.0) {
        return 0.0;
    }
    let mut join: f64 = facts.iter().map(|(r, _)| *r).product();
    // Each extra occurrence of a shared variable filters by ~1/maxdistinct.
    let mut occ: HashMap<u32, (usize, f64)> = HashMap::new();
    for (_, d) in facts {
        for (&v, &dc) in d {
            let e = occ.entry(v).or_insert((0, 0.0));
            e.0 += 1;
            e.1 = e.1.max(dc.max(1.0));
        }
    }
    for (count, maxd) in occ.values() {
        if *count > 1 && maxd.is_finite() {
            join /= maxd.powi((*count - 1) as i32);
        }
    }
    // The projection can't exceed the cross product of its columns'
    // tightest distinct counts.
    let mut cap: f64 = 1.0;
    for v in proj.iter() {
        let mut best = f64::INFINITY;
        for (_, d) in facts {
            if let Some(&dc) = d.get(&v) {
                best = best.min(dc.max(1.0));
            }
        }
        if best.is_finite() {
            cap *= best;
        }
    }
    join.min(cap)
}

/// A cost-annotated free-connex certificate.
#[derive(Clone, Debug)]
pub struct CostedPlan {
    /// The executable plan (same shape `plan_free_connex` produces).
    pub plan: ExtensionPlan,
    /// Estimated materialized rows per `plan.atoms` entry, same order —
    /// surfaced for `EXPLAIN`-style plan dumps.
    pub estimates: Vec<f64>,
    /// Candidate extension sets scored across all members.
    pub candidates_costed: usize,
}

/// The cheapest provider for planned atom `(target, vars)`: estimate,
/// index into [`Availability::resolve_all`] order (0 = what `resolve`
/// picks), and the provenance itself. Strict `<` keeps the earliest entry
/// on ties, so uniform statistics reproduce the first-found plan.
fn cheapest_provider(
    model: &mut CostModel<'_>,
    avail: &Availability,
    target: usize,
    vars: VSet,
) -> Option<(f64, usize, Provenance)> {
    let mut best: Option<(f64, usize, Provenance)> = None;
    for (idx, p) in avail.resolve_all(target, vars).into_iter().enumerate() {
        let e = model.est_provenance(p);
        if best.as_ref().is_none_or(|(b, _, _)| e < *b) {
            best = Some((e, idx, p.clone()));
        }
    }
    best
}

/// The instance-independent half of the costed planner: the availability
/// fixpoint and the candidate extension sets per member. Both depend only
/// on the query, so an engine prepares this once and re-prices it per
/// instance — a plan-cache miss costs one round of costing, not a fresh
/// connexity search.
pub struct CostedSearch {
    ucq: Ucq,
    avail: Availability,
    /// Candidate extension sets per member (empty when every member is
    /// already free-connex — no extensions to choose between).
    candidates: Vec<Vec<Vec<VSet>>>,
}

impl CostedSearch {
    /// Runs the search space of [`plan_free_connex`](crate::plan_free_connex)
    /// once, keeping every candidate. Returns `None` exactly when the
    /// first-found planner does (same candidates enumerated).
    pub fn prepare(ucq: &Ucq, cfg: &SearchConfig) -> Option<CostedSearch> {
        if ucq.cqs().iter().all(Cq::is_free_connex) {
            return Some(CostedSearch {
                ucq: ucq.clone(),
                avail: Availability::default(),
                candidates: Vec::new(),
            });
        }
        let mut oracle = ConnexOracle::default();
        let avail = compute_availability_all(ucq, &mut oracle, cfg);
        let mut candidates = Vec::with_capacity(ucq.len());
        for (i, cq) in ucq.cqs().iter().enumerate() {
            let h = cq.hypergraph();
            let pool = avail.pool_for(i, &h, cfg.pool_cap);
            let cands = oracle.find_extensions(&h, cq.free(), &pool, cfg, cfg.max_plan_candidates);
            if cands.is_empty() {
                return None;
            }
            candidates.push(cands);
        }
        Some(CostedSearch {
            ucq: ucq.clone(),
            avail,
            candidates,
        })
    }

    /// Prices the prepared candidates against `instance`'s statistics and
    /// schedules the cheapest combination.
    pub fn plan(&self, instance: &Instance, ctx: &CtxView) -> CostedPlan {
        if self.candidates.is_empty() {
            return CostedPlan {
                plan: ExtensionPlan {
                    atoms: Vec::new(),
                    chosen: vec![Vec::new(); self.ucq.len()],
                },
                estimates: Vec::new(),
                candidates_costed: 0,
            };
        }
        let avail = &self.avail;
        let mut model = CostModel::new(&self.ucq, avail, instance, ctx);
        let mut chosen: Vec<Vec<VSet>> = Vec::with_capacity(self.ucq.len());
        let mut overrides: HashMap<(usize, VSet), Provenance> = HashMap::new();
        let mut candidates_costed = 0usize;
        for (i, cands) in self.candidates.iter().enumerate() {
            let mut best: Option<(f64, usize)> = None;
            for (ci, cand) in cands.iter().enumerate() {
                candidates_costed += 1;
                let total: f64 = cand
                    .iter()
                    .map(|&vars| {
                        cheapest_provider(&mut model, avail, i, vars)
                            .map_or(f64::INFINITY, |(e, _, _)| e)
                    })
                    .sum();
                if best.is_none_or(|(b, _)| total < b) {
                    best = Some((total, ci));
                }
            }
            let (_, ci) = best.expect("prepare() rejects members with no candidates");
            let cand = cands[ci].clone();
            for &vars in &cand {
                if let Some((_, idx, prov)) = cheapest_provider(&mut model, avail, i, vars) {
                    if idx != 0 {
                        // Cheaper than the scheduler's default pick: override.
                        overrides.insert((i, vars), prov);
                    }
                }
            }
            chosen.push(cand);
        }

        sanitize_overrides(avail, &mut overrides);
        let plan = schedule_plan(avail, chosen, &overrides);
        let estimates: Vec<f64> = plan
            .atoms
            .iter()
            .map(|a| {
                let prov = a.provenance.clone();
                model.est_provenance(&prov)
            })
            .collect();
        CostedPlan {
            plan,
            estimates,
            candidates_costed,
        }
    }
}

/// Cost-based variant of [`plan_free_connex`](crate::plan_free_connex):
/// same search space, but candidate extension sets and alternative
/// providers are priced against `instance`'s statistics and the cheapest
/// combination wins. Returns `None` exactly when the first-found planner
/// does (the searches enumerate the same candidates). One-shot facade
/// over [`CostedSearch`]; engines keep the `CostedSearch` around instead.
pub fn plan_free_connex_costed(
    ucq: &Ucq,
    cfg: &SearchConfig,
    instance: &Instance,
    ctx: &CtxView,
) -> Option<CostedPlan> {
    Some(CostedSearch::prepare(ucq, cfg)?.plan(instance, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_free_connex;
    use ucq_query::parse_ucq;
    use ucq_storage::{Relation, Value};

    fn pairs(rows: &[(i64, i64)]) -> Relation {
        let mut r = Relation::new(2);
        for &(a, b) in rows {
            r.push_row(&[Value::Int(a), Value::Int(b)]);
        }
        r
    }

    fn est(facts: &[(f64, &[(u32, f64)])], proj: &[u32]) -> f64 {
        let facts: Vec<(f64, HashMap<u32, f64>)> = facts
            .iter()
            .map(|(r, d)| (*r, d.iter().copied().collect()))
            .collect();
        join_projection_estimate(&facts, proj.iter().copied().collect())
    }

    #[test]
    fn estimate_basics() {
        // Empty input or an empty atom → 0.
        assert_eq!(est(&[], &[0]), 0.0);
        assert_eq!(est(&[(0.0, &[(0, 0.0)])], &[0]), 0.0);
        // Single atom, full projection: its row count.
        assert_eq!(est(&[(10.0, &[(0, 5.0), (1, 10.0)])], &[0, 1]), 10.0);
        // Projection cap: π_{v0} can't exceed distinct(v0).
        assert_eq!(est(&[(10.0, &[(0, 5.0), (1, 10.0)])], &[0]), 5.0);
        // Join on a shared var: 10·10/10 = 10.
        let joined = est(
            &[
                (10.0, &[(0, 10.0), (1, 10.0)]),
                (10.0, &[(1, 10.0), (2, 10.0)]),
            ],
            &[0, 2],
        );
        assert_eq!(joined, 10.0);
        // Skew: a low-distinct shared column inflates the estimate.
        let skewed = est(
            &[
                (10.0, &[(0, 10.0), (1, 2.0)]),
                (10.0, &[(1, 2.0), (2, 10.0)]),
            ],
            &[0, 2],
        );
        assert!(skewed > joined, "fanout 5 joins bigger than fanout 1");
    }

    #[test]
    fn costed_matches_first_found_on_uniform_stats() {
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let mut inst = Instance::new();
        inst.insert("R1", pairs(&[(1, 2), (3, 4)]));
        inst.insert("R2", pairs(&[(2, 5), (4, 6)]));
        inst.insert("R3", pairs(&[(5, 7), (6, 8)]));
        let ctx = CtxView::new();
        let cfg = SearchConfig::default();
        let first = plan_free_connex(&u, &cfg).unwrap();
        let costed = plan_free_connex_costed(&u, &cfg, &inst, &ctx).unwrap();
        assert_eq!(costed.plan.chosen, first.chosen);
        assert_eq!(costed.plan.atoms.len(), first.atoms.len());
        assert_eq!(costed.estimates.len(), costed.plan.atoms.len());
        assert!(costed.candidates_costed >= 1);
        assert!(costed.estimates.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn costed_picks_the_selective_provider_on_skewed_stats() {
        use crate::algorithm1::Algorithm1;
        use crate::naive_ucq::evaluate_ucq_naive_set;
        use crate::pipeline::UcqPipelinePrep;
        use std::collections::HashSet;
        use ucq_enumerate::Enumerator;
        use ucq_storage::Tuple;
        // Q1 needs a virtual atom on {x, z, y}; Q2 provides it off the
        // near-cartesian R1 × π(R3) (n² rows), Q3 off the selective join
        // R1 ⋈ R2 (n/8 rows). The availability fixpoint sees Q2 first.
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R3(w, v)\n\
             Q3(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let n = 64i64;
        let rel = |rows: i64, from: i64| {
            Relation::from_pairs((0..rows).map(|i| (from + i, from + n + i)))
        };
        let mut inst = Instance::new();
        inst.insert("R1", rel(n, 0));
        inst.insert("R2", rel(n / 8, n));
        inst.insert("R3", rel(n, 2 * n));
        let cfg = SearchConfig::default();
        let first = plan_free_connex(&u, &cfg).unwrap();
        let costed = plan_free_connex_costed(&u, &cfg, &inst, &CtxView::new()).unwrap();
        assert_eq!((first.atoms.len(), costed.plan.atoms.len()), (1, 1));
        assert_ne!(
            first.atoms[0].provenance.provider, costed.plan.atoms[0].provenance.provider,
            "statistics skew must flip the provider choice"
        );
        assert_eq!(costed.plan.atoms[0].provenance.provider, 2, "R1 ⋈ R2");
        // Whichever provider materializes the atom, the answers are Q's.
        let want = evaluate_ucq_naive_set(&u, &inst).unwrap();
        assert!(!want.is_empty());
        for plan in [&first, &costed.plan] {
            let prep = UcqPipelinePrep::prepare(&u, plan, &inst, &CtxView::new()).unwrap();
            let got = Algorithm1::from_engines(prep.engines().to_vec()).collect_all();
            assert_eq!(got.len(), want.len(), "no repeats");
            assert_eq!(got.into_iter().collect::<HashSet<Tuple>>(), want);
        }
    }

    #[test]
    fn costed_agrees_on_unplannability() {
        let u = parse_ucq(
            "Q1(x, y, v) <- R1(x, z), R2(z, y), R3(y, v), R4(v, w)\n\
             Q2(x, y, v) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)",
        )
        .unwrap();
        let inst = Instance::new();
        let ctx = CtxView::new();
        let cfg = SearchConfig::default();
        assert!(plan_free_connex(&u, &cfg).is_none());
        assert!(plan_free_connex_costed(&u, &cfg, &inst, &ctx).is_none());
    }

    #[test]
    fn missing_relations_cost_zero() {
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let inst = Instance::new(); // no relations at all
        let ctx = CtxView::new();
        let costed = plan_free_connex_costed(&u, &SearchConfig::default(), &inst, &ctx).unwrap();
        assert!(costed.estimates.iter().all(|&e| e == 0.0));
    }
}

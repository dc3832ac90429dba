//! Search for virtual-atom sets that establish `S`-connexity.
//!
//! Both sides of the union-extension machinery need the same primitive:
//! *given a hypergraph `H`, a target set `S`, and a pool of candidate
//! virtual atoms, find a subset `A` of the pool such that `H + A` is
//! `S`-connex.* Providers use it with `S ⊆ free(Q_j)` (Definition 7,
//! condition 3); the final free-connex test uses it with `S = free(Q_i)`
//! (Definition 11).
//!
//! The search is exact for `|A| ≤ 2` and falls back to a Lemma-28-style
//! greedy pass that repeatedly adds the candidate that most reduces the
//! number of remaining free-paths (preferring acyclicity). Queries are
//! constant-sized, so this is query-complexity work. Its bounds are fixed
//! constants, not options; they exist because no complete decision
//! procedure for Definition 11 is known (the full dichotomy is open —
//! paper §5), and every `Unknown` verdict names them.

use std::collections::HashMap;
use ucq_hypergraph::{free_paths, is_acyclic, is_s_connex, Hypergraph, VSet};
use ucq_storage::fx_hash_of;

// The search bounds. Each one can make the search miss a certificate, so a
// `Verdict::Unknown`'s notes name all five (see `classify.rs`); the
// sixth only caps how many alternatives the cost-based planner prices.

/// Exact subset search covers extensions of one and two virtual atoms.
pub(crate) const MAX_EXACT_SUBSET: usize = 2;
/// Greedy free-path-elimination steps after the exact search.
pub(crate) const MAX_GREEDY_STEPS: usize = 8;
/// Body-homomorphisms enumerated per ordered member pair.
pub(crate) const HOM_CAP: usize = 128;
/// Rounds of the availability fixpoint.
pub(crate) const MAX_ROUNDS: usize = 6;
/// Candidate virtual atoms kept per member after pruning.
pub(crate) const POOL_CAP: usize = 160;
/// Candidate extension sets kept per member for the cost-based planner.
pub(crate) const MAX_PLAN_CANDIDATES: usize = 4;

/// The search's bounds, as a type. Every bound is a fixed constant; the
/// type stays only because [`CostedSearch::prepare`](crate::CostedSearch::prepare)
/// takes one. It has no settable field.
#[derive(Clone, Debug, Default)]
pub struct SearchConfig(());

/// Memoized `S`-connexity oracle over extended hypergraphs.
///
/// The memo key is a 64-bit multiset hash of the extended edge list (each
/// edge hashed independently, combined by commutative wrapping addition)
/// rather than an owned, sorted `Vec<VSet>`: a query neither clones nor
/// re-sorts the edge list, and the map stores 16 bytes per entry instead
/// of a heap vector.
#[derive(Default)]
pub struct ConnexOracle {
    memo: HashMap<(u64, VSet), bool>,
}

/// SplitMix64's finalizer: a bijective non-linear mixer. Each edge must be
/// mixed *before* the commutative addition — a linear per-edge hash (like
/// fx on a single word) would make the sum collide for any two edge
/// multisets with equal bitmask totals, e.g. `{3,12,6}` vs `{5,10,6}`.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The order-independent edge-multiset hash of `base + extra` (vertex count
/// folded in so hypergraphs differing only in isolated vertices don't
/// collide).
fn edges_key(base: &Hypergraph, extra: &[VSet]) -> u64 {
    let mut acc = mix64(fx_hash_of(&base.n_vertices()));
    for e in base.edges().iter().chain(extra) {
        acc = acc.wrapping_add(mix64(e.0));
    }
    acc
}

impl ConnexOracle {
    /// Whether `base + extra` is `s`-connex (memoized).
    pub fn is_s_connex(&mut self, base: &Hypergraph, extra: &[VSet], s: VSet) -> bool {
        let key = (edges_key(base, extra), s);
        if let Some(&v) = self.memo.get(&key) {
            return v;
        }
        let h = base.with_edges(extra);
        let v = is_s_connex(&h, s);
        self.memo.insert(key, v);
        v
    }

    /// Finds `A ⊆ pool` with `base + A` `s`-connex, or `None` within the
    /// search bounds. An empty `A` is returned when `base` is already
    /// `s`-connex.
    pub fn find_extension(
        &mut self,
        base: &Hypergraph,
        s: VSet,
        pool: &[VSet],
    ) -> Option<Vec<VSet>> {
        self.find_extensions(base, s, pool, 1).pop()
    }

    /// Finds up to `k` distinct sets `A ⊆ pool` with `base + A` `s`-connex,
    /// in the search order of [`ConnexOracle::find_extension`] (empty set,
    /// then exact size-1 fixes, then exact size-2, then the greedy result).
    /// The first entry is always what `find_extension` would have returned,
    /// so costing the candidates and picking any of them preserves the
    /// planner's completeness. An empty result means no extension was found
    /// within the bounds.
    pub fn find_extensions(
        &mut self,
        base: &Hypergraph,
        s: VSet,
        pool: &[VSet],
        k: usize,
    ) -> Vec<Vec<VSet>> {
        if k == 0 {
            return Vec::new();
        }
        if self.is_s_connex(base, &[], s) {
            // Nothing beats materializing nothing; alternatives are noise.
            return vec![Vec::new()];
        }
        let mut found: Vec<Vec<VSet>> = Vec::new();
        let pool = prune_pool(base, pool);
        // Exact search up to `MAX_EXACT_SUBSET` atoms: size 1, then size 2.
        for &c in &pool {
            if self.is_s_connex(base, &[c], s) {
                found.push(vec![c]);
                if found.len() == k {
                    return found;
                }
            }
        }
        for i in 0..pool.len() {
            for j in i + 1..pool.len() {
                if self.is_s_connex(base, &[pool[i], pool[j]], s) {
                    found.push(vec![pool[i], pool[j]]);
                    if found.len() == k {
                        return found;
                    }
                }
            }
        }
        if !found.is_empty() {
            // An exact solution exists; the greedy pass could only produce
            // a superset of some size ≤ 2 fix.
            return found;
        }
        // Greedy fallback (Lemma 28 style): add the candidate with the best
        // (acyclicity, remaining free-paths) score, require strict progress.
        let mut chosen: Vec<VSet> = Vec::new();
        let mut score = score_of(base, &chosen, s);
        for _ in 0..MAX_GREEDY_STEPS {
            let mut best: Option<(VSet, (bool, usize))> = None;
            for &c in &pool {
                if chosen.contains(&c) {
                    continue;
                }
                chosen.push(c);
                let sc = score_of(base, &chosen, s);
                chosen.pop();
                if better(sc, score) && best.is_none_or(|(_, b)| better(sc, b)) {
                    best = Some((c, sc));
                }
            }
            let Some((c, sc)) = best else {
                return found;
            };
            chosen.push(c);
            score = sc;
            if self.is_s_connex(base, &chosen, s) {
                found.push(chosen);
                return found;
            }
        }
        found
    }
}

/// Score: `(acyclic, number of S-free-paths)`. Lower is better; cyclic is
/// worst.
fn score_of(base: &Hypergraph, extra: &[VSet], s: VSet) -> (bool, usize) {
    let h = base.with_edges(extra);
    if !is_acyclic(&h) {
        return (false, usize::MAX);
    }
    (true, free_paths(&h, s.inter(h.covered_vertices())).len())
}

fn better(a: (bool, usize), b: (bool, usize)) -> bool {
    match (a.0, b.0) {
        (true, false) => true,
        (false, true) => false,
        _ => a.1 < b.1,
    }
}

/// Cleans a candidate pool: drops singletons (absorbed immediately by GYO),
/// atoms contained in a base edge (no structural effect), and duplicates;
/// sorts large-to-small for deterministic search; truncates to
/// [`POOL_CAP`].
pub(crate) fn prune_pool(base: &Hypergraph, pool: &[VSet]) -> Vec<VSet> {
    let mut out: Vec<VSet> = pool
        .iter()
        .copied()
        .filter(|c| c.len() >= 2 && !base.edges().iter().any(|e| c.is_subset(*e)))
        .collect();
    out.sort_unstable_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    out.dedup();
    out.truncate(POOL_CAP);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hg(n: u32, edges: &[&[u32]]) -> Hypergraph {
        Hypergraph::new(
            n,
            edges.iter().map(|e| e.iter().copied().collect()).collect(),
        )
    }

    fn vs(v: &[u32]) -> VSet {
        v.iter().copied().collect()
    }

    #[test]
    fn already_connex_needs_nothing() {
        let h = hg(3, &[&[0, 2], &[2, 1]]);
        let mut o = ConnexOracle::default();
        let a = o.find_extension(&h, vs(&[0, 1, 2]), &[]).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn example2_single_atom_fix() {
        // Q1(x,y,w) <- R1(x,z),R2(z,y),R3(y,w): x=0,y=1,w=2,z=3.
        // Adding {x,z,y} = {0,3,1} makes it free-connex.
        let h = hg(4, &[&[0, 3], &[3, 1], &[1, 2]]);
        let free = vs(&[0, 1, 2]);
        let pool = [vs(&[0, 3, 1])];
        let mut o = ConnexOracle::default();
        let a = o.find_extension(&h, free, &pool).unwrap();
        assert_eq!(a, vec![vs(&[0, 3, 1])]);
    }

    #[test]
    fn useless_pool_fails() {
        let h = hg(4, &[&[0, 3], &[3, 1], &[1, 2]]);
        let free = vs(&[0, 1, 2]);
        // Only an atom inside an existing edge: pruned away.
        let pool = [vs(&[0, 3])];
        let mut o = ConnexOracle::default();
        assert!(o.find_extension(&h, free, &pool).is_none());
    }

    #[test]
    fn example13_needs_two_atoms() {
        // Q1(x,y,v,u) <- R1(x,z1),R2(z1,z2),R3(z2,z3),R4(z3,y),R5(y,v,u)
        // x=0,y=1,v=2,u=3,z1=4,z2=5,z3=6; free={x,y,v,u}.
        // Pool: {x,z1,z2,y} and {x,z2,z3,y} (as provided in the paper).
        let h = hg(7, &[&[0, 4], &[4, 5], &[5, 6], &[6, 1], &[1, 2, 3]]);
        let free = vs(&[0, 1, 2, 3]);
        let pool = [vs(&[0, 4, 5, 1]), vs(&[0, 5, 6, 1])];
        let mut o = ConnexOracle::default();
        let a = o
            .find_extension(&h, free, &pool)
            .expect("Example 13's Q1 has a free-connex union extension");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn example36_cyclic_fixed_by_one_atom() {
        // Q1(x,y,z,w) <- R1(y,z,w,x),R2(t,y,w),R3(t,z,w),R4(t,y,z)
        // x=0,y=1,z=2,w=3,t=4; adding {t,y,z,w} = {4,1,2,3} resolves it.
        let h = hg(5, &[&[1, 2, 3, 0], &[4, 1, 3], &[4, 2, 3], &[4, 1, 2]]);
        let free = vs(&[0, 1, 2, 3]);
        assert!(!is_acyclic(&h));
        let pool = [vs(&[4, 1, 2, 3])];
        let mut o = ConnexOracle::default();
        let a = o
            .find_extension(&h, free, &pool)
            .expect("Example 36 becomes free-connex");
        assert_eq!(a, vec![vs(&[4, 1, 2, 3])]);
    }

    #[test]
    fn example39_full_set_creates_hyperclique() {
        // Q1(x2,x3,x4) <- R1(x2,x3,x4),R2(x1,x3,x4),R3(x1,x2,x4):
        // x1=0,x2=1,x3=2,x4=3; adding {x1,x2,x3} introduces the hyperclique
        // and does NOT make the query free-connex.
        let h = hg(4, &[&[1, 2, 3], &[0, 2, 3], &[0, 1, 3]]);
        let free = vs(&[1, 2, 3]);
        let pool = [vs(&[0, 1, 2])];
        let mut o = ConnexOracle::default();
        assert!(o.find_extension(&h, free, &pool).is_none());
    }

    #[test]
    fn find_extensions_orders_first_found_first() {
        // Example 13 shape again, with a pool holding two alternative
        // two-atom fixes: k-candidate search must lead with exactly what
        // find_extension returns and respect the cap.
        let h = hg(7, &[&[0, 4], &[4, 5], &[5, 6], &[6, 1], &[1, 2, 3]]);
        let free = vs(&[0, 1, 2, 3]);
        let pool = [vs(&[0, 4, 5, 1]), vs(&[0, 5, 6, 1])];
        let mut o = ConnexOracle::default();
        let first = o.find_extension(&h, free, &pool).unwrap();
        let many = o.find_extensions(&h, free, &pool, 4);
        assert!(!many.is_empty());
        assert_eq!(many[0], first, "candidate 0 is the first-found set");
        assert!(o.find_extensions(&h, free, &pool, 0).is_empty());
    }

    #[test]
    fn find_extensions_on_connex_base_is_just_empty_set() {
        let h = hg(3, &[&[0, 2], &[2, 1]]);
        let mut o = ConnexOracle::default();
        let many = o.find_extensions(&h, vs(&[0, 1, 2]), &[vs(&[0, 1])], 4);
        assert_eq!(many, vec![Vec::<VSet>::new()]);
    }

    #[test]
    fn memo_key_distinguishes_isolated_vertices() {
        // Same edges, different vertex counts: must not share memo entries.
        let h3 = hg(3, &[&[0, 1]]);
        let h4 = hg(4, &[&[0, 1]]);
        assert_ne!(edges_key(&h3, &[]), edges_key(&h4, &[]));
        // Order independence: extra edges hash the same in any order.
        let a = edges_key(&h4, &[vs(&[1, 2]), vs(&[2, 3])]);
        let b = edges_key(&h4, &[vs(&[2, 3]), vs(&[1, 2])]);
        assert_eq!(a, b);
    }

    #[test]
    fn memo_key_distinguishes_equal_bitmask_sums() {
        // Edge bitmasks {3, 12, 6} and {5, 10, 6} both sum to 21; a linear
        // per-edge hash would collide here (and once did, conflating one
        // query's {a,f}-connexity with another's {a,d}).
        let h1 = hg(4, &[&[0, 1], &[2, 3], &[1, 2]]);
        let h2 = hg(4, &[&[0, 2], &[1, 3], &[1, 2]]);
        assert_ne!(edges_key(&h1, &[]), edges_key(&h2, &[]));
    }

    #[test]
    fn pool_pruning() {
        let h = hg(4, &[&[0, 1], &[1, 2]]);
        let pool = [
            vs(&[0]),       // singleton: dropped
            vs(&[0, 1]),    // inside an edge: dropped
            vs(&[0, 1, 2]), // kept
            vs(&[0, 1, 2]), // duplicate: dropped
            vs(&[2, 3]),    // kept
        ];
        let pruned = prune_pool(&h, &pool);
        assert_eq!(pruned, vec![vs(&[0, 1, 2]), vs(&[2, 3])]);
    }
}

//! The liveness reducer against an oracle that shares no code with it: over
//! random acyclic CQs and random instances — base mirrors churned through
//! the context, so the kernel sees tombstones, delta segments and indexes
//! carried by `merge_appended` — a row is live after [`live_rows`] iff it
//! occurs in the naive full join, and the [`full_reduce`] wrapper leaves
//! each node with exactly those rows.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use ucq_hypergraph::{join_tree, JoinTree};
use ucq_query::{Cq, Ucq};
use ucq_storage::{CtxView, HashIndex, Instance, Relation, Value};
use ucq_workloads::{random_instance, InstanceSpec};
use ucq_yannakakis::{
    atom_signature, evaluate_cq_naive, full_reduce, live_rows, CdyEngine, NodeRel,
};

const VARS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// A self-join-free acyclic CQ over up to four atoms of one to three
/// arguments (repeats allowed), with every variable in the head.
fn arb_acyclic_cq() -> impl Strategy<Value = Cq> {
    let atom = proptest::collection::vec(0..6u32, 1..=3);
    proptest::collection::vec(atom, 1..=4).prop_filter_map("acyclic", |atoms| {
        let mut used: Vec<u32> = atoms.iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        let head: Vec<&str> = used.iter().map(|&v| VARS[v as usize]).collect();
        let specs: Vec<(String, Vec<&str>)> = atoms
            .iter()
            .enumerate()
            .map(|(i, args)| {
                let args = args.iter().map(|&v| VARS[v as usize]).collect();
                (format!("R{i}"), args)
            })
            .collect();
        let refs: Vec<(&str, &[&str])> = specs
            .iter()
            .map(|(n, a)| (n.as_str(), a.as_slice()))
            .collect();
        let cq = Cq::build("Q", &head, &refs).ok()?;
        cq.is_acyclic().then_some(cq)
    })
}

/// Whether the atom's normalization is its relation as stored (distinct
/// variables in ascending order), so the raw mirror can stand in for it.
fn reads_mirror_as_is(cq: &Cq, atom_idx: usize) -> bool {
    let sig = atom_signature(&cq.atoms()[atom_idx].args);
    sig.iter().enumerate().all(|(i, &r)| r as usize == i)
}

/// Node relations over `inst`: the raw (possibly tombstoned, segmented)
/// mirror where the atom reads it as is, the cached normalization
/// otherwise; with the separator index of every non-root node taken from
/// the context's cache.
fn nodes_and_indexes(
    cq: &Cq,
    tree: &JoinTree,
    inst: &Instance,
    ctx: &CtxView,
) -> (Vec<NodeRel>, Vec<Option<Arc<HashIndex>>>) {
    let rels: Vec<NodeRel> = tree
        .nodes()
        .iter()
        .map(|node| {
            let atom_idx = node.atom.expect("a plain join tree has atom nodes only");
            let atom = &cq.atoms()[atom_idx];
            let stored = inst.get_shared(&atom.rel).expect("generated");
            let mut nr = NodeRel::from_atom(atom, &stored, ctx).expect("arity matches");
            if reads_mirror_as_is(cq, atom_idx) {
                nr.rel = ctx.interned_rel(&stored);
            }
            nr
        })
        .collect();
    let indexes = (0..rels.len())
        .map(|n| {
            tree.parent(n)
                .map(|_| ctx.index(&rels[n].rel, &rels[n].cols_of(tree.separator(n))))
        })
        .collect();
    (rels, indexes)
}

fn decoded(nr: &NodeRel, ctx: &CtxView, row: usize) -> Vec<Value> {
    (0..nr.rel.arity())
        .map(|c| ctx.decode(nr.rel.at(row, c)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn live_rows_are_the_rows_of_the_full_join(
        cq in arb_acyclic_cq(),
        seed in 0u64..1_000,
        rows in 0usize..24,
        churn in 0usize..3,
    ) {
        let spec = InstanceSpec { rows_per_relation: rows, domain: 4, seed };
        let mut inst = random_instance(&Ucq::single(cq.clone()), &spec);
        let tree = join_tree(&cq.hypergraph()).expect("acyclic");
        let ctx = CtxView::new();
        // Warm the caches on the unchurned instance, so the churn below has
        // mirrors to tombstone and indexes to merge.
        let _ = nodes_and_indexes(&cq, &tree, &inst, &ctx);
        for round in 0..churn {
            for (i, atom) in cq.atoms().iter().enumerate() {
                let stored = inst.get_shared(&atom.rel).expect("generated");
                // Delete every third row, then append a few rows over the
                // same domain (some duplicate live rows, some revive dead).
                let mut victims = Relation::new(stored.arity());
                for row in stored.iter_rows().skip(round).step_by(3) {
                    victims.push_row(row);
                }
                let delta_spec = InstanceSpec {
                    rows_per_relation: 3,
                    domain: 4,
                    seed: seed ^ ((round * 8 + i + 1) as u64),
                };
                let delta = random_instance(&Ucq::single(cq.clone()), &delta_spec);
                let next = ctx.delete_rows(&stored, &victims);
                let next = ctx.insert_rows(&next, delta.get(&atom.rel).expect("generated"));
                inst = inst.with_relation_shared(&atom.rel, next);
            }
        }

        let (rels, indexes) = nodes_and_indexes(&cq, &tree, &inst, &ctx);
        let live = live_rows(&tree, &rels, &indexes);

        // The oracle: every variable is in the head, so an answer of the
        // naive join is a full binding.
        let results = evaluate_cq_naive(&cq, &inst).expect("evaluates");
        for (n, nr) in rels.iter().enumerate() {
            let pos: Vec<usize> = nr
                .vars
                .iter()
                .map(|v| cq.head().iter().position(|h| h == v).expect("full head"))
                .collect();
            let joined: HashSet<Vec<Value>> = results
                .iter()
                .map(|t| pos.iter().map(|&p| t[p]).collect())
                .collect();
            for r in 0..nr.rel.len() {
                let want = nr.rel.is_live(r) && joined.contains(&decoded(nr, &ctx, r));
                prop_assert_eq!(live[n][r], want, "node {} row {}", n, r);
            }
        }

        // The wrapper: reduce, then compact once — the same rows, in order.
        let mut reduced = rels.clone();
        let nonempty = full_reduce(&tree, &mut reduced);
        prop_assert_eq!(nonempty, !results.is_empty());
        for (n, (before, after)) in rels.iter().zip(&reduced).enumerate() {
            let want: Vec<Vec<Value>> = (0..before.rel.len())
                .filter(|&r| live[n][r])
                .map(|r| decoded(before, &ctx, r))
                .collect();
            let got: Vec<Vec<Value>> =
                (0..after.rel.len()).map(|r| decoded(after, &ctx, r)).collect();
            prop_assert!(!after.rel.has_tombstones());
            prop_assert_eq!(got, want, "node {}", n);
        }

        // And the engine built over the same context enumerates that join
        // (its build asserts the constant-delay precondition in debug).
        let engine = CdyEngine::for_query_in(&cq, &inst, &ctx).expect("free-connex");
        let got: HashSet<_> = engine.iter().collect_all().into_iter().collect();
        prop_assert_eq!(got, results.into_iter().collect::<HashSet<_>>());
    }
}

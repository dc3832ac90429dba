//! The UCQ classifier: assembling the paper's upper and lower bounds into a
//! three-way verdict.
//!
//! * [`Verdict::FreeConnex`] — the union is free-connex (Definition 11);
//!   the attached [`ExtensionPlan`] is an executable `DelayClin`
//!   certificate (Theorems 4 and 12).
//! * [`Verdict::Intractable`] — one of the paper's conditional lower bounds
//!   applies; the [`HardnessWitness`] names the reduction and the
//!   hypothesis it rests on (Lemmas 14/15/25/26, Theorems 3/17/33).
//! * [`Verdict::Unknown`] — outside every proven class (the paper's §5
//!   frontier, e.g. Examples 30, 31 (k ≥ 5), 38), or beyond the search
//!   bounds; the notes say which.
//!
//! Lower bounds never depend on the (bounded) extension search: for every
//! class with a dichotomy the guard conditions decide exactly, so a search
//! miss can only produce a pessimistic `Unknown`, never a wrong verdict.

use crate::body_iso::{align_body_isomorphic, AlignedUnion};
use crate::cost::CostedSearch;
use crate::guards::{is_bypass_guarded, is_free_path_guarded, is_isolated, is_union_guarded};
use crate::plan::ExtensionPlan;
use crate::search::{
    SearchConfig, HOM_CAP, MAX_EXACT_SUBSET, MAX_GREEDY_STEPS, MAX_ROUNDS, POOL_CAP,
};
use ucq_hypergraph::free_paths;
use ucq_query::{exists_body_hom, lemma16_representative, minimize_union, Cq, Ucq, VarId};

/// The Theorem 3 trichotomy for a single self-join-free CQ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqStatus {
    /// Free-connex: in `DelayClin`.
    FreeConnex,
    /// Acyclic but not free-connex: not in `DelayClin` assuming mat-mul.
    AcyclicHard,
    /// Cyclic: even `Decide⟨Q⟩` is super-linear assuming hyperclique.
    Cyclic,
}

/// Classifies one CQ per Theorem 3.
pub fn cq_status(cq: &Cq) -> CqStatus {
    if cq.is_free_connex() {
        CqStatus::FreeConnex
    } else if cq.is_acyclic() {
        CqStatus::AcyclicHard
    } else {
        CqStatus::Cyclic
    }
}

/// The fine-grained hypotheses of §2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hypothesis {
    /// Boolean n×n matrix multiplication needs ω(n²) time.
    MatMul,
    /// A k-hyperclique in a (k−1)-uniform hypergraph needs ω(n^{k−1}) time.
    HyperClique,
    /// A 4-clique needs ω(n³) time.
    FourClique,
}

impl std::fmt::Display for Hypothesis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Hypothesis::MatMul => write!(f, "mat-mul"),
            Hypothesis::HyperClique => write!(f, "hyperclique"),
            Hypothesis::FourClique => write!(f, "4-clique"),
        }
    }
}

/// A named lower-bound argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HardnessWitness {
    /// Lemma 14/15: member `member` is hard and no other member maps into
    /// it by a body-homomorphism (or only body-isomorphically, for the
    /// decision variant); the member's own Theorem 3 hardness transfers.
    IsolatedHardCq {
        /// The hard member (index into the minimized union).
        member: usize,
        /// Its Theorem 3 status.
        status: CqStatus,
    },
    /// Theorem 17: all members intractable, no two body-isomorphic acyclic
    /// members; hardness transfers through the Lemma 16 representative.
    UnionOfIntractable {
        /// The representative chosen per Lemma 16.
        representative: usize,
        /// Its Theorem 3 status.
        status: CqStatus,
    },
    /// Lemma 25 / Theorem 33: a free-path of `member` is not (union)
    /// guarded — Boolean matrix multiplication embeds.
    UnguardedFreePath {
        /// Whose free-path.
        member: usize,
        /// The path, as variable ids of the aligned body.
        path: Vec<VarId>,
    },
    /// Lemma 26: free-path guarded both ways but not bypass guarded —
    /// 4-clique embeds.
    NotBypassGuarded {
        /// Whose free-path.
        member: usize,
        /// The path, as variable ids of the aligned body.
        path: Vec<VarId>,
    },
}

impl HardnessWitness {
    /// The hypothesis the bound rests on.
    pub fn hypothesis(&self) -> Hypothesis {
        match self {
            HardnessWitness::IsolatedHardCq { status, .. }
            | HardnessWitness::UnionOfIntractable { status, .. } => match status {
                CqStatus::AcyclicHard => Hypothesis::MatMul,
                CqStatus::Cyclic => Hypothesis::HyperClique,
                CqStatus::FreeConnex => unreachable!("free-connex members are not witnesses"),
            },
            HardnessWitness::UnguardedFreePath { .. } => Hypothesis::MatMul,
            HardnessWitness::NotBypassGuarded { .. } => Hypothesis::FourClique,
        }
    }

    /// The paper result backing the witness.
    pub fn reference(&self) -> &'static str {
        match self {
            HardnessWitness::IsolatedHardCq { status, .. } => match status {
                CqStatus::Cyclic => "Lemma 15 + Theorem 3(3)",
                _ => "Lemma 14 + Theorem 3(2)",
            },
            HardnessWitness::UnionOfIntractable { .. } => "Theorem 17",
            HardnessWitness::UnguardedFreePath { .. } => "Lemma 25 / Theorem 33",
            HardnessWitness::NotBypassGuarded { .. } => "Lemma 26",
        }
    }
}

/// The classifier's decision.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// In `DelayClin`, with an executable certificate.
    FreeConnex {
        /// The union-extension plan (empty plan = Theorem 4 case).
        plan: ExtensionPlan,
    },
    /// Not in `DelayClin` under the stated hypothesis.
    Intractable {
        /// Which reduction applies.
        witness: HardnessWitness,
    },
    /// Outside the proven classes (or the bounded search).
    Unknown {
        /// Diagnostics: which checks failed and why nothing applies.
        notes: Vec<String>,
    },
}

/// The full classification result.
#[derive(Clone, Debug)]
pub struct Classification {
    /// Indices of the members kept after redundancy elimination
    /// (Example 1), into the original union.
    pub kept: Vec<usize>,
    /// The minimized union all verdict fields refer to.
    pub minimized: Ucq,
    /// Theorem 3 status per kept member.
    pub statuses: Vec<CqStatus>,
    /// The verdict.
    pub verdict: Verdict,
}

impl Classification {
    /// Whether the verdict is `FreeConnex`.
    pub fn is_tractable(&self) -> bool {
        matches!(self.verdict, Verdict::FreeConnex { .. })
    }

    /// Whether the verdict is `Intractable`.
    pub fn is_intractable(&self) -> bool {
        matches!(self.verdict, Verdict::Intractable { .. })
    }
}

/// Classifies `ucq`.
pub fn classify(ucq: &Ucq) -> Classification {
    classify_searched(ucq).0
}

/// Classifies `ucq`, and hands back the union-extension search behind a
/// `FreeConnex` verdict so that an engine can re-price it per instance
/// instead of searching again.
pub(crate) fn classify_searched(ucq: &Ucq) -> (Classification, Option<CostedSearch>) {
    let (minimized, kept) = minimize_union(ucq);
    let statuses: Vec<CqStatus> = minimized.cqs().iter().map(cq_status).collect();

    // Upper bound: free-connex union extension (Theorems 4 and 12).
    let search = CostedSearch::prepare(&minimized, &SearchConfig::default());
    let verdict = match &search {
        Some(search) => Verdict::FreeConnex {
            plan: search.certificate(),
        },
        None => lower_bounds(&minimized, &statuses),
    };
    let classification = Classification {
        kept,
        minimized,
        statuses,
        verdict,
    };
    (classification, search)
}

fn lower_bounds(ucq: &Ucq, statuses: &[CqStatus]) -> Verdict {
    let mut notes: Vec<String> = Vec::new();
    let n = ucq.len();

    if !ucq.is_self_join_free() {
        return Verdict::Unknown {
            notes: vec!["the paper's lower bounds require self-join-free members".to_string()],
        };
    }

    // Single member: Theorem 3 directly.
    if n == 1 {
        return Verdict::Intractable {
            witness: HardnessWitness::IsolatedHardCq {
                member: 0,
                status: statuses[0],
            },
        };
    }

    // Lemma 14/15: a hard member no other member maps into.
    for (i, qi) in ucq.cqs().iter().enumerate() {
        if statuses[i] == CqStatus::FreeConnex {
            continue;
        }
        let unreachable_member = ucq
            .cqs()
            .iter()
            .enumerate()
            .all(|(j, qj)| j == i || !exists_body_hom(qj, qi));
        if unreachable_member {
            return Verdict::Intractable {
                witness: HardnessWitness::IsolatedHardCq {
                    member: i,
                    status: statuses[i],
                },
            };
        }
    }
    notes.push("every hard member is reachable by a body-homomorphism".to_string());

    // Body-isomorphic unions (§4.2, §5.1).
    if let Some(aligned) = align_body_isomorphic(ucq) {
        if let Some(v) = body_iso_bounds(&aligned, statuses, n, &mut notes) {
            return v;
        }
    } else {
        notes.push("members are not all body-isomorphic".to_string());
    }

    // Theorem 17: all members intractable, no two body-isomorphic acyclic
    // members.
    if statuses.iter().all(|s| *s != CqStatus::FreeConnex) {
        let mut iso_acyclic_pair = false;
        for i in 0..n {
            for j in i + 1..n {
                if statuses[i] != CqStatus::Cyclic
                    && statuses[j] != CqStatus::Cyclic
                    && ucq_query::body_isomorphism(&ucq.cqs()[i], &ucq.cqs()[j]).is_some()
                {
                    iso_acyclic_pair = true;
                }
            }
        }
        if !iso_acyclic_pair {
            let m = lemma16_representative(ucq);
            return Verdict::Intractable {
                witness: HardnessWitness::UnionOfIntractable {
                    representative: m,
                    status: statuses[m],
                },
            };
        }
        notes.push(
            "all members intractable but two acyclic members are body-isomorphic".to_string(),
        );
    }

    notes.push(format!(
        "no proven lower bound applies; extension search bounds: exact ≤ {MAX_EXACT_SUBSET} \
         atoms, greedy ≤ {MAX_GREEDY_STEPS} steps, ≤ {HOM_CAP} homomorphisms per member pair, \
         ≤ {MAX_ROUNDS} fixpoint rounds, candidate pool ≤ {POOL_CAP} per member"
    ));
    Verdict::Unknown { notes }
}

/// Lower bounds for body-isomorphic unions; `None` = nothing applies.
fn body_iso_bounds(
    aligned: &AlignedUnion,
    statuses: &[CqStatus],
    n: usize,
    notes: &mut Vec<String>,
) -> Option<Verdict> {
    let h = aligned.body.hypergraph();

    // Cyclic bodies fall to Theorem 17 (handled by the caller: a cyclic
    // member is never free-connex, and body-isomorphic acyclic pairs don't
    // exist when the body is cyclic).
    if statuses.contains(&CqStatus::Cyclic) {
        notes.push("body-isomorphic union with cyclic body".to_string());
        return None;
    }

    if n == 2 {
        // Theorem 29 dichotomy.
        for (a, b) in [(0usize, 1usize), (1, 0)] {
            if !is_free_path_guarded(&h, aligned.frees[a], aligned.frees[b]) {
                let path = free_paths(&h, aligned.frees[a])
                    .into_iter()
                    .find(|p| !p.vars().is_subset(aligned.frees[b]))
                    .expect("guard violation implies such a path");
                return Some(Verdict::Intractable {
                    witness: HardnessWitness::UnguardedFreePath {
                        member: a,
                        path: path.0,
                    },
                });
            }
        }
        for (a, b) in [(0usize, 1usize), (1, 0)] {
            if !is_bypass_guarded(&aligned.body, aligned.frees[a], aligned.frees[b]) {
                let path = free_paths(&h, aligned.frees[a])
                    .into_iter()
                    .find(|p| {
                        !crate::guards::subsequent_atom_vars(&aligned.body, p)
                            .is_subset(aligned.frees[b])
                    })
                    .expect("bypass violation implies such a path");
                return Some(Verdict::Intractable {
                    witness: HardnessWitness::NotBypassGuarded {
                        member: a,
                        path: path.0,
                    },
                });
            }
        }
        // Both guards hold: Lemma 28 says the union is free-connex, so the
        // planner should have certified it. Reaching here means the bounded
        // search missed a certificate that provably exists.
        notes.push(
            "body-isomorphic pair fully guarded: free-connex by Lemma 28, \
             but the bounded extension search found no certificate"
                .to_string(),
        );
        return None;
    }

    // n ≥ 3: Theorem 33 (a non-union-guarded free-path is hard).
    for (m, free_m) in aligned.frees.iter().enumerate() {
        for p in free_paths(&h, *free_m) {
            if !is_union_guarded(&p, &aligned.frees) {
                return Some(Verdict::Intractable {
                    witness: HardnessWitness::UnguardedFreePath {
                        member: m,
                        path: p.0,
                    },
                });
            }
        }
    }
    // Theorem 35 would certify tractability when every free-path is also
    // isolated — the planner should already have found it then.
    let all_isolated = aligned.frees.iter().all(|free_m| {
        let paths = free_paths(&h, *free_m);
        paths.iter().all(|p| is_isolated(&h, &paths, p))
    });
    if all_isolated {
        notes.push(
            "all free-paths union guarded and isolated: free-connex by Theorem 35, \
             but the bounded extension search found no certificate"
                .to_string(),
        );
    } else {
        notes.push(
            "body-isomorphic union with union-guarded but non-isolated free-paths \
             (the Example 31 frontier: open in the paper)"
                .to_string(),
        );
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_query::parse_ucq;

    fn verdict(text: &str) -> Classification {
        classify(&parse_ucq(text).unwrap())
    }

    #[test]
    fn example1_minimization_keeps_q2() {
        let c = verdict(
            "Q1(x, y) <- R1(x, y), R2(y, z), R3(z, x)\n\
             Q2(x, y) <- R1(x, y), R2(y, z)",
        );
        assert_eq!(c.kept, vec![1]);
        assert!(c.is_tractable(), "the surviving Q2 is free-connex");
    }

    #[test]
    fn example2_tractable() {
        let c = verdict(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        );
        assert!(c.is_tractable());
        assert_eq!(
            c.statuses,
            vec![CqStatus::AcyclicHard, CqStatus::FreeConnex]
        );
    }

    #[test]
    fn example9_intractable_via_lemma14() {
        let c = verdict(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w), R4(y)",
        );
        match &c.verdict {
            Verdict::Intractable { witness } => {
                assert_eq!(
                    *witness,
                    HardnessWitness::IsolatedHardCq {
                        member: 0,
                        status: CqStatus::AcyclicHard
                    }
                );
                assert_eq!(witness.hypothesis(), Hypothesis::MatMul);
            }
            v => panic!("expected intractable, got {v:?}"),
        }
    }

    #[test]
    fn example13_tractable_union_of_hard_members() {
        let c = verdict(
            "Q1(x, y, v, u) <- R1(x, z1), R2(z1, z2), R3(z2, z3), R4(z3, y), R5(y, v, u)\n\
             Q2(x, y, v, u) <- R1(x, y), R2(y, v), R3(v, z1), R4(z1, u), R5(u, t1, t2)\n\
             Q3(x, y, v, u) <- R1(x, z1), R2(z1, y), R3(y, v), R4(v, u), R5(u, t1, t2)",
        );
        assert!(c.is_tractable());
        assert!(c.statuses.iter().all(|s| *s == CqStatus::AcyclicHard));
    }

    #[test]
    fn example18_intractable_triple() {
        let c = verdict(
            "Q1(x, y) <- R1(x, y), R2(y, u), R3(x, u)\n\
             Q2(x, y) <- R1(y, v), R2(v, x), R3(y, x)\n\
             Q3(x, y) <- R1(x, z), R2(y, z)",
        );
        match &c.verdict {
            Verdict::Intractable { witness } => {
                assert!(matches!(
                    witness,
                    HardnessWitness::UnionOfIntractable { .. }
                        | HardnessWitness::IsolatedHardCq { .. }
                ));
            }
            v => panic!("expected intractable, got {v:?}"),
        }
    }

    #[test]
    fn example20_intractable_unguarded() {
        let c = verdict(
            "Q1(x, y, v) <- R1(x, z), R2(z, y), R3(y, v), R4(v, w)\n\
             Q2(x, y, v) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)",
        );
        match &c.verdict {
            Verdict::Intractable { witness } => {
                assert!(matches!(witness, HardnessWitness::UnguardedFreePath { .. }));
                assert_eq!(witness.hypothesis(), Hypothesis::MatMul);
            }
            v => panic!("expected intractable, got {v:?}"),
        }
    }

    #[test]
    fn example21_tractable_guarded() {
        let c = verdict(
            "Q1(w, y, x, z) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)\n\
             Q2(x, y, w, v) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)",
        );
        assert!(c.is_tractable());
    }

    #[test]
    fn example22_intractable_bypass() {
        let c = verdict(
            "Q1(x, y, t) <- R1(x, w, t), R2(y, w, t)\n\
             Q2(x, y, w) <- R1(x, w, t), R2(y, w, t)",
        );
        match &c.verdict {
            Verdict::Intractable { witness } => {
                assert!(matches!(witness, HardnessWitness::NotBypassGuarded { .. }));
                assert_eq!(witness.hypothesis(), Hypothesis::FourClique);
            }
            v => panic!("expected intractable, got {v:?}"),
        }
    }

    #[test]
    fn example30_unknown() {
        let c = verdict(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, t1), R2(t2, y), R3(w, t3)",
        );
        assert!(matches!(c.verdict, Verdict::Unknown { .. }));
    }

    #[test]
    fn example31_k4_unknown_by_general_rules() {
        // The paper proves k=4 hard ad hoc (4-clique); the general theorems
        // leave it open, so the classifier reports Unknown with the
        // Example-31-frontier note.
        let c = verdict(
            "Q1(x1, x2, x3) <- R1(x1, z), R2(x2, z), R3(x3, z)\n\
             Q2(x1, x2, z) <- R1(x1, z), R2(x2, z), R3(x3, z)\n\
             Q3(x1, x3, z) <- R1(x1, z), R2(x2, z), R3(x3, z)\n\
             Q4(x2, x3, z) <- R1(x1, z), R2(x2, z), R3(x3, z)",
        );
        match &c.verdict {
            Verdict::Unknown { notes } => {
                assert!(notes.iter().any(|n| n.contains("Example 31")));
            }
            v => panic!("expected unknown, got {v:?}"),
        }
    }

    #[test]
    fn example36_tractable_cyclic_member() {
        let c = verdict(
            "Q1(x, y, z, w) <- R1(y, z, w, x), R2(t, y, w), R3(t, z, w), R4(t, y, z)\n\
             Q2(x, y, z, w) <- R1(x, z, w, v), R2(y, x, w)",
        );
        assert!(
            c.is_tractable(),
            "Example 36 is free-connex, got {:?}",
            c.verdict
        );
        assert_eq!(c.statuses[0], CqStatus::Cyclic);
    }

    #[test]
    fn example37_intractable_unguarded_path_with_cycle() {
        let c = verdict(
            "Q1(x, y, v) <- R1(v, z, x), R2(y, v), R3(z, y)\n\
             Q2(x, y, v) <- R1(y, v, z), R2(x, y)",
        );
        // The union is intractable (unguarded free-path (x,z,y) in Q1); the
        // general classifier can at least not call it tractable.
        assert!(!c.is_tractable());
    }

    #[test]
    fn example38_unknown() {
        let c = verdict(
            "Q1(x, z, y, v) <- R1(x, z, v), R2(z, y, v), R3(y, x, v)\n\
             Q2(x, z, y, v) <- R1(x, z, v), R2(y, t1, v), R3(t2, x, v)",
        );
        assert!(
            matches!(c.verdict, Verdict::Unknown { .. }),
            "Example 38's complexity is open, got {:?}",
            c.verdict
        );
    }

    #[test]
    fn theorem3_single_members() {
        let fc = verdict("Q(x, z, y) <- A(x, z), B(z, y)");
        assert!(fc.is_tractable());
        let hard = verdict("Q(x, y) <- A(x, z), B(z, y)");
        match &hard.verdict {
            Verdict::Intractable { witness } => {
                assert_eq!(witness.hypothesis(), Hypothesis::MatMul)
            }
            v => panic!("{v:?}"),
        }
        let cyc = verdict("Q(x, y, z) <- A(x, y), B(y, z), C(z, x)");
        match &cyc.verdict {
            Verdict::Intractable { witness } => {
                assert_eq!(witness.hypothesis(), Hypothesis::HyperClique)
            }
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn self_join_blocks_lower_bounds() {
        let c = verdict("Q(x, y) <- R(x, z), R(z, y)");
        assert!(matches!(c.verdict, Verdict::Unknown { .. }));
    }
}

//! Functional dependencies and FD-extensions (Remark 2).
//!
//! The paper notes that its machinery composes with the authors' earlier
//! dichotomy for CQs under functional dependencies (Carmeli & Kröll,
//! ICDT 2018 — reference \[6\]): *"Given a UCQ over a schema with functional
//! dependencies, we can first take the FD-extensions of all CQs in the
//! union, and then take the union extensions of those and evaluate the
//! union."*
//!
//! A functional dependency `R : X → y` (determinant positions `X`, a
//! determined position `y`) means every two `R`-tuples agreeing on `X`
//! agree on `y`. The **FD-extension** of a CQ repeatedly applies two rules
//! until fixpoint, neither of which changes the semantics over instances
//! satisfying the FDs:
//!
//! 1. **atom saturation** — if an atom `R(v̄)` covers the determinant
//!    variables of some FD on any relation of the query (through another
//!    atom `R'(w̄)` with `w̄[X] = v̄'s` variables at those positions… we use
//!    the per-atom form: the FD holds on the atom's own relation), the
//!    determined variable is appended to that atom;
//! 2. **head saturation** — if all determinant variables of an applied FD
//!    instance are free, the determined variable is added to the head.
//!
//! Concretely, following ICDT'18: for an FD `R : X → y` and an atom
//! `R(v̄)`, every *other* atom `S(ū)` whose variables contain `v̄[X]` gets
//! `v̄[y]` appended, and the head gets `v̄[y]` appended whenever
//! `v̄[X] ⊆ free(Q)`. Enumerating the extension is equivalent to
//! enumerating the original (the added coordinates are functions of
//! existing ones), so classification can be performed on the extension.
//!
//! Relations named by FDs are *extended* too at evaluation time:
//! [`extend_instance`] widens each saturated atom's relation with the
//! functionally determined columns so the extended query can run on real
//! data. (Each added column is computed by joining with the FD's source
//! atom — linear time with a hash index.)
//!
//! # Remark 2 as a rewrite
//!
//! [`fd_rewrite`] turns a union under FDs into an ordinary one: every
//! member FD-extended (widened atoms renamed per member and atom, so no two
//! widenings of one relation can collide), the number `k` of
//! head positions the original union had, and the matching translation of
//! instances ([`FdRewrite::instance`]). The rewritten union runs on the
//! ordinary [`UcqEngine`] ([`FdRewrite::engine`]) — classified, enumerated
//! one-shot, in a session, frozen, refrozen and served like any other —
//! which answers with the first `k` head positions.
//!
//! What the projection onto those positions preserves: *within one member*
//! it is injective (every appended head variable is functionally determined
//! by the original head values), so a member's projected answers are
//! distinct. *Across members* it is not: two members may have grown by
//! different determined variables — `Q1(x) ← A(x, z)` and `Q2(x) ← B(x, w)`
//! under `A: x → z`, `B: x → w` extend to `Q1(x, z)`, `Q2(x, w)`, and the
//! answers `(1, 10)` and `(1, 20)` are one answer `(1)` of the original
//! union. Algorithm 1 still answers it once (Carmeli & Kröll): on an
//! instance that satisfies the FDs, each appended head variable is a
//! function of the original head, found by one lookup on the FD's
//! determinant columns. Each member therefore carries a **lift** — its head
//! saturations in head order, as [`LiftStep`]s — and its membership test
//! lifts a projected answer to the member's own head before probing it; a
//! lookup miss proves the answer is not the member's.
//!
//! Limitation (documented; the paper leaves the FD-composition informal):
//! per-member renaming of *widened* atoms hides cross-member provisions
//! through those atoms, and members whose FD-extensions end up with
//! different head arities are rejected (a typed [`QueryError`]). The
//! flagship Remark 2 scenario — a query made free-connex by its keys, like
//! `Π(x,y) ← A(x,z), B(z,y)` with `A : x → z` — is fully supported.

use crate::engine::UcqEngine;
use std::collections::HashMap;
use ucq_query::{Atom, Cq, QueryError, Ucq, VarId};
use ucq_storage::{HashIndex, Instance, Relation, Value};
use ucq_yannakakis::{EvalError, LiftStep};

/// A functional dependency `rel : lhs → rhs` over column positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fd {
    /// Relation name.
    pub rel: String,
    /// Determinant column positions.
    pub lhs: Vec<usize>,
    /// Determined column position.
    pub rhs: usize,
}

impl Fd {
    /// Creates an FD; panics on an empty determinant or `rhs ∈ lhs`.
    pub fn new(rel: impl Into<String>, lhs: Vec<usize>, rhs: usize) -> Fd {
        assert!(!lhs.is_empty(), "FDs need at least one determinant column");
        assert!(!lhs.contains(&rhs), "trivial FD");
        Fd {
            rel: rel.into(),
            lhs,
            rhs,
        }
    }

    /// Fails, saying why, when `rel` has `arity` columns and this FD names
    /// one past them; `whose` says where `rel` is.
    fn fits(&self, arity: usize, whose: &str) -> Result<(), String> {
        let (rel, lhs, rhs) = (&self.rel, &self.lhs, self.rhs);
        let widest = lhs.iter().fold(rhs, |w, &c| w.max(c));
        if widest < arity {
            return Ok(());
        }
        Err(format!(
            "functional dependency {rel}: {lhs:?} -> {rhs} names column {widest}, but {rel} \
             has arity {arity} {whose}"
        ))
    }

    /// Whether a relation satisfies this FD. A relation too narrow for the
    /// FD's columns satisfies it nowhere, with rows or without.
    pub fn holds_on(&self, rel: &Relation) -> bool {
        if self.fits(rel.arity(), "").is_err() {
            return false;
        }
        let mut seen: HashMap<Vec<Value>, Value> = HashMap::with_capacity(rel.len());
        for row in rel.iter_rows() {
            let key: Vec<Value> = self.lhs.iter().map(|&c| row[c]).collect();
            match seen.insert(key, row[self.rhs]) {
                Some(prev) if prev != row[self.rhs] => return false,
                _ => {}
            }
        }
        true
    }
}

/// A set of FDs over a schema.
#[derive(Clone, Debug, Default)]
pub struct FdSet {
    fds: Vec<Fd>,
}

impl FdSet {
    /// Creates an FD set.
    pub fn new(fds: Vec<Fd>) -> FdSet {
        FdSet { fds }
    }

    /// The member FDs.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// Whether all FDs hold on `inst` (absent relations count as holding).
    pub fn holds_on(&self, inst: &Instance) -> bool {
        self.fds
            .iter()
            .all(|fd| inst.get(&fd.rel).map(|r| fd.holds_on(r)).unwrap_or(true))
    }
}

/// One applied FD instance recorded while extending a query: the source
/// atom index, the FD, and the determined variable chosen for it.
#[derive(Clone, Debug)]
pub struct AppliedFd {
    /// Index of the source atom (in the *original* query's atom order).
    pub atom: usize,
    /// The FD that fired.
    pub fd: Fd,
    /// The determinant variables `v̄[X]`.
    pub lhs_vars: Vec<VarId>,
    /// The determined variable `v̄[y]`.
    pub rhs_var: VarId,
}

impl AppliedFd {
    /// The lookup that derives `rhs_var` from `lhs_vars` through the FD's
    /// relation.
    fn lift_step(&self) -> LiftStep {
        LiftStep {
            rel: self.fd.rel.clone(),
            cols: self.fd.lhs.clone(),
            col: self.fd.rhs,
            key: self.lhs_vars.clone(),
            var: self.rhs_var,
        }
    }
}

/// The FD-extension of one CQ: the extended query plus the trace of
/// applied FDs (used to extend instances consistently).
#[derive(Clone, Debug)]
pub struct FdExtension {
    /// The extended query.
    pub query: Cq,
    /// Which FD applications widened which atoms: `(target_atom_index,
    /// application)` pairs, in application order. Atom indices refer to the
    /// extended query's atom order (identical to the original order).
    pub widened: Vec<(usize, AppliedFd)>,
    /// The applications that appended a head variable, in head order: the
    /// extended head is the original one followed by their `rhs_var`s.
    pub lifted: Vec<AppliedFd>,
}

/// Computes the FD-extension of `cq` under `fds` (ICDT'18 construction,
/// used here as the Remark 2 preprocessing step). Fails when an FD names a
/// column past the arity its relation has in `cq`.
pub fn fd_extend_cq(cq: &Cq, fds: &FdSet) -> Result<FdExtension, QueryError> {
    let whose = format!("in query {}", cq.name());
    for fd in fds.fds() {
        for atom in cq.atoms().iter().filter(|a| a.rel == fd.rel) {
            fd.fits(atom.args.len(), &whose).map_err(QueryError::new)?;
        }
    }
    // Working state: atom variable lists + head, all over cq's namespace.
    let mut atoms: Vec<Atom> = cq.atoms().to_vec();
    let mut head: Vec<VarId> = cq.head().to_vec();
    let mut widened: Vec<(usize, AppliedFd)> = Vec::new();
    let mut lifted: Vec<AppliedFd> = Vec::new();

    // Fixpoint: apply every FD instance to every atom until nothing grows.
    // Termination: every rule only adds a variable (bounded by n_vars per
    // atom / head).
    let mut changed = true;
    while changed {
        changed = false;
        for src in 0..cq.atoms().len() {
            // Columns are checked against the original atom above; a
            // widened atom keeps them as its prefix.
            let src_atom = atoms[src].clone();
            for fd in fds.fds() {
                if fd.rel != src_atom.rel {
                    continue;
                }
                let lhs_vars: Vec<VarId> = fd.lhs.iter().map(|&c| src_atom.args[c]).collect();
                let rhs_var = src_atom.args[fd.rhs];
                let app = AppliedFd {
                    atom: src,
                    fd: fd.clone(),
                    lhs_vars: lhs_vars.clone(),
                    rhs_var,
                };
                // Head saturation.
                if lhs_vars.iter().all(|v| head.contains(v)) && !head.contains(&rhs_var) {
                    head.push(rhs_var);
                    lifted.push(app.clone());
                    changed = true;
                }
                // Atom saturation: any other atom containing all the
                // determinant variables absorbs the determined one.
                for (t, atom) in atoms.iter_mut().enumerate() {
                    if t == src {
                        continue;
                    }
                    let has_lhs = lhs_vars.iter().all(|v| atom.args.contains(v));
                    if has_lhs && !atom.args.contains(&rhs_var) {
                        atom.args.push(rhs_var);
                        widened.push((t, app.clone()));
                        changed = true;
                    }
                }
            }
        }
    }

    let query = Cq::new(
        format!("{}_fd", cq.name()),
        head,
        atoms,
        cq.var_names().to_vec(),
    )?;
    Ok(FdExtension {
        query,
        widened,
        lifted,
    })
}

/// A union under functional dependencies, rewritten into an ordinary union
/// plus the two things needed to use it: how many head positions make an
/// answer of the original, and how to translate instances.
#[derive(Clone, Debug)]
pub struct FdRewrite {
    /// The FD-extended union `Q⁺`. Atoms widened by an FD application are
    /// renamed `R@fd<member>.<atom>`: two atoms of one relation can widen
    /// by different columns.
    pub ucq: Ucq,
    /// Head positions of the original union: an answer of it is the first
    /// `answer_arity` positions of an answer of `ucq`.
    pub answer_arity: usize,
    /// Per member of `ucq`, the lookups that derive the head positions past
    /// `answer_arity` from the first ones.
    lifts: Vec<Vec<LiftStep>>,
    fds: FdSet,
    original: Ucq,
    extensions: Vec<FdExtension>,
}

/// Rewrites `ucq` under `fds` (Remark 2): FD-extends every member and
/// scopes the widened atoms' relation names to it. Fails when an FD names
/// a column its relation does not have in some member, and when the
/// extended heads disagree in arity (heads can grow differently when the
/// members' free variables determine different closures; the paper's
/// setting requires the union's members to share their free variables, so
/// the closure is shared too — on the positional encoding this surfaces as
/// an arity mismatch and is reported as an error).
pub fn fd_rewrite(ucq: &Ucq, fds: &FdSet) -> Result<FdRewrite, QueryError> {
    let mut extensions = Vec::with_capacity(ucq.len());
    for (i, cq) in ucq.cqs().iter().enumerate() {
        let mut ext = fd_extend_cq(cq, fds)?;
        let mut atoms = ext.query.atoms().to_vec();
        for (t, _) in &ext.widened {
            atoms[*t].rel = format!("{}@fd{i}.{t}", cq.atoms()[*t].rel);
        }
        let (head, names) = (ext.query.head().to_vec(), cq.var_names().to_vec());
        ext.query = Cq::new(ext.query.name(), head, atoms, names)?;
        extensions.push(ext);
    }
    let lifted = |e: &FdExtension| e.lifted.iter().map(AppliedFd::lift_step).collect();
    Ok(FdRewrite {
        ucq: Ucq::new(extensions.iter().map(|e| e.query.clone()).collect())?,
        answer_arity: ucq.head_arity(),
        lifts: extensions.iter().map(lifted).collect(),
        fds: fds.clone(),
        original: ucq.clone(),
        extensions,
    })
}

impl FdRewrite {
    /// The ordinary engine over the rewritten union, answering with the
    /// original head positions. Its classification is the Remark 2 verdict.
    pub fn engine(&self) -> UcqEngine {
        UcqEngine::projecting(self.ucq.clone(), self.lifts.clone())
    }

    /// Member `m`'s lift: the lookups, in head order, that derive the head
    /// positions of `ucq`'s member `m` past `answer_arity`.
    pub fn lift(&self, m: usize) -> &[LiftStep] {
        &self.lifts[m]
    }

    /// The instance translation `I ↦ I⁺`: checks that every relation an FD
    /// names is wide enough for it and that the FDs hold (either failure
    /// is an [`EvalError::Schema`], each with its own message), and adds
    /// every member's widened relations.
    /// Relations no member widens keep their `Arc` identity, so a
    /// [`FrozenSession::refreeze`](crate::FrozenSession::refreeze) over the
    /// translation of a churned instance rebuilds only what reads a widened
    /// or churned relation.
    pub fn instance(&self, inst: &Instance) -> Result<Instance, EvalError> {
        // A relation too narrow for an FD is a schema error of its own,
        // whatever its rows, before the FDs are checked.
        for (fd, rel) in self
            .fds
            .fds()
            .iter()
            .filter_map(|fd| Some((fd, inst.get(&fd.rel)?)))
        {
            fd.fits(rel.arity(), "in the instance")
                .map_err(EvalError::Schema)?;
        }
        if !self.fds.holds_on(inst) {
            return Err(EvalError::Schema(
                "instance violates the declared functional dependencies".into(),
            ));
        }
        let members = self.original.cqs().iter().zip(&self.extensions);
        Ok(members.fold(inst.clone(), |acc, (cq, ext)| {
            extend_instance(cq, ext, &acc)
        }))
    }
}

/// Widens an instance to match an FD-extended query: every widened atom's
/// relation gains the functionally determined columns, computed by joining
/// against the FD's source relation. Panics if the instance violates an
/// applied FD (callers should check [`FdSet::holds_on`] first).
pub fn extend_instance(original: &Cq, ext: &FdExtension, inst: &Instance) -> Instance {
    let mut out = inst.clone();
    // Process in application order: later applications may depend on
    // columns added by earlier ones. We rebuild each target relation as a
    // growing row table.
    let mut current: HashMap<usize, Relation> = HashMap::new();
    let get_rel = |name: &str, arity: usize, inst: &Instance| -> Relation {
        inst.get(name)
            .cloned()
            .unwrap_or_else(|| Relation::new(arity))
    };
    // One interned index per (source atom, lhs) — an FD whose source
    // widens several targets must not re-intern the source per target.
    // (Local interning: widening is a preprocessing step that runs before
    // any EvalContext exists.)
    type SrcEntry = (Relation, ucq_storage::Dictionary, HashIndex);
    let mut src_cache: HashMap<(usize, Vec<usize>), SrcEntry> = HashMap::new();
    for (t, app) in &ext.widened {
        let target_atom = &original.atoms()[*t];
        let target_now = current
            .remove(t)
            .unwrap_or_else(|| get_rel(&target_atom.rel, target_atom.args.len(), inst));
        // The source relation provides lhs -> rhs lookups.
        let (src_rel, dict, idx) = src_cache
            .entry((app.atom, app.fd.lhs.clone()))
            .or_insert_with(|| {
                let src_atom = &original.atoms()[app.atom];
                let src_rel = get_rel(&src_atom.rel, src_atom.args.len(), inst);
                let mut dict = ucq_storage::Dictionary::new();
                let src_ids = src_rel.columnar(&mut dict);
                let idx = HashIndex::build(&src_ids, &app.fd.lhs);
                (src_rel, dict, idx)
            });

        // Positions of the lhs variables inside the *current* target
        // columns (original args + already-appended columns). We track the
        // target's column variables explicitly.
        let target_cols = target_columns(original, ext, *t, &target_now);
        let lhs_pos: Vec<usize> = app
            .lhs_vars
            .iter()
            .map(|v| {
                target_cols
                    .iter()
                    .position(|c| c == v)
                    .expect("saturation rule guarantees the lhs columns exist")
            })
            .collect();

        let mut widened_rel = Relation::with_capacity(target_now.arity() + 1, target_now.len());
        let mut buf: Vec<Value> = Vec::with_capacity(target_now.arity() + 1);
        let mut key: Vec<ucq_storage::ValueId> = Vec::with_capacity(lhs_pos.len());
        for row in target_now.iter_rows() {
            key.clear();
            let known = lhs_pos.iter().all(|&p| match dict.lookup(row[p]) {
                Some(id) => {
                    key.push(id);
                    true
                }
                None => false,
            });
            let matches = if known { idx.get(&key) } else { &[] };
            if matches.is_empty() {
                // No source tuple determines the value: the row is dangling
                // w.r.t. the join and can be dropped without changing the
                // query's answers (the source atom must match anyway).
                continue;
            }
            let val = src_rel.row(matches[0] as usize)[app.fd.rhs];
            debug_assert!(
                matches
                    .iter()
                    .all(|&m| src_rel.row(m as usize)[app.fd.rhs] == val),
                "instance violates FD {:?}",
                app.fd
            );
            buf.clear();
            buf.extend_from_slice(row);
            buf.push(val);
            widened_rel.push_row(&buf);
        }
        current.insert(*t, widened_rel);
    }
    for (t, rel) in current {
        out.insert(ext.query.atoms()[t].rel.clone(), rel);
    }
    out
}

/// The variable of each column of atom `t`'s relation after the widenings
/// applied so far (deduced from the current arity).
fn target_columns(original: &Cq, ext: &FdExtension, t: usize, target_now: &Relation) -> Vec<VarId> {
    let mut cols: Vec<VarId> = original.atoms()[t].args.clone();
    for (tt, app) in &ext.widened {
        if *tt == t && cols.len() < target_now.arity() {
            cols.push(app.rhs_var);
        }
        if cols.len() == target_now.arity() {
            break;
        }
    }
    assert_eq!(cols.len(), target_now.arity(), "column bookkeeping");
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_ucq::evaluate_ucq_naive_set;
    use crate::{classify, Strategy};
    use std::collections::HashSet;
    use ucq_enumerate::Enumerator;
    use ucq_query::{parse_cq, parse_ucq};
    use ucq_storage::Tuple;
    use ucq_yannakakis::evaluate_cq_naive;

    #[test]
    fn fd_holds_detection() {
        let fd = Fd::new("R", vec![0], 1);
        let good = Relation::from_pairs([(1, 10), (2, 20), (1, 10)]);
        let bad = Relation::from_pairs([(1, 10), (1, 11)]);
        assert!(fd.holds_on(&good));
        assert!(!fd.holds_on(&bad));
    }

    #[test]
    fn a_relation_too_narrow_for_an_fd_is_a_schema_error_with_rows_or_without() {
        let u = parse_ucq("Q(x, y) <- A(x, z), B(z, y)").unwrap();
        let rewrite = fd_rewrite(&u, &FdSet::new(vec![Fd::new("A", vec![0], 1)])).unwrap();
        let b = Relation::from_pairs([(2, 3)]);
        let mut one_row = Relation::new(1);
        one_row.push_row(&[Value::Int(1)]);
        for a in [one_row, Relation::new(1)] {
            let rows = a.len();
            let inst: Instance = [("A", a), ("B", b.clone())].into_iter().collect();
            let Err(EvalError::Schema(msg)) = rewrite.instance(&inst) else {
                panic!("a one-column A with {rows} rows must be a schema error");
            };
            assert!(
                msg.contains("A has arity 1 in the instance"),
                "{rows} rows: {msg}"
            );
            assert!(!msg.contains("violates"), "{rows} rows: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "trivial")]
    fn trivial_fd_rejected() {
        Fd::new("R", vec![1], 1);
    }

    #[test]
    fn matmul_becomes_free_connex_under_key_fd() {
        // Π(x,y) <- A(x,z), B(z,y) with the FD A: x→z (first column is a
        // key). The FD-extension widens the head with z — and the extended
        // query is free-connex (the ICDT'18 phenomenon).
        let q = parse_cq("Pi(x, y) <- A(x, z), B(z, y)").unwrap();
        assert!(!q.is_free_connex());
        let fds = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
        let ext = fd_extend_cq(&q, &fds).unwrap();
        // Head gained z.
        assert_eq!(ext.query.head().len(), 3);
        assert!(ext.query.is_free_connex());
    }

    #[test]
    fn atom_saturation_widens_other_atoms() {
        // Q(x,w) <- R(x,y), S(x,w) with R: x→y: S absorbs y.
        let q = parse_cq("Q(x, w) <- R(x, y), S(x, w)").unwrap();
        let fds = FdSet::new(vec![Fd::new("R", vec![0], 1)]);
        let ext = fd_extend_cq(&q, &fds).unwrap();
        let s_atom = &ext.query.atoms()[1];
        assert_eq!(s_atom.args.len(), 3, "S(x,w) became S(x,w,y)");
        // Head also gains y (x is free and determines it).
        assert!(ext.query.head().contains(&q.var_id("y").unwrap()));
    }

    #[test]
    fn extension_preserves_semantics_on_fd_instances() {
        let q = parse_cq("Q(x, w) <- R(x, y), S(x, w)").unwrap();
        let fds = FdSet::new(vec![Fd::new("R", vec![0], 1)]);
        let ext = fd_extend_cq(&q, &fds).unwrap();

        let inst: Instance = [
            ("R", Relation::from_pairs([(1, 10), (2, 20)])),
            ("S", Relation::from_pairs([(1, 5), (1, 6), (2, 7), (3, 9)])),
        ]
        .into_iter()
        .collect();
        assert!(fds.holds_on(&inst));

        let widened = extend_instance(&q, &ext, &inst);
        // The extended query over the widened instance projects onto the
        // original head exactly like the original query over the original
        // instance.
        let orig: HashSet<Tuple> = evaluate_cq_naive(&q, &inst).unwrap().into_iter().collect();
        let ext_answers = evaluate_cq_naive(&ext.query, &widened).unwrap();
        let orig_head_len = q.head().len();
        let projected: HashSet<Tuple> = ext_answers
            .iter()
            .map(|t| Tuple::from_row(&t.values()[..orig_head_len]))
            .collect();
        assert_eq!(orig, projected);
    }

    #[test]
    fn fd_violating_instance_detected() {
        let fds = FdSet::new(vec![Fd::new("R", vec![0], 1)]);
        let inst: Instance = [("R", Relation::from_pairs([(1, 10), (1, 11)]))]
            .into_iter()
            .collect();
        assert!(!fds.holds_on(&inst));
    }

    #[test]
    fn remark2_pipeline_fd_then_union_extension() {
        // A union that is NOT free-connex without FDs: the matmul member
        // alone. With the key FD it becomes classifiable as tractable.
        let u = parse_ucq("Pi(x, y) <- A(x, z), B(z, y)").unwrap();
        assert!(classify(&u).is_intractable());
        let fds = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
        let rewrite = fd_rewrite(&u, &fds).unwrap();
        assert!(
            classify(&rewrite.ucq).is_tractable(),
            "Remark 2: classify the FD-extension instead"
        );
    }

    #[test]
    fn multi_column_determinant() {
        // T(a,b,c) with T: {a,b} → c, used from another atom U(a,b,d).
        let q = parse_cq("Q(a, b, d) <- T(a, b, c), U(a, b, d)").unwrap();
        let fds = FdSet::new(vec![Fd::new("T", vec![0, 1], 2)]);
        let ext = fd_extend_cq(&q, &fds).unwrap();
        assert_eq!(ext.query.atoms()[1].args.len(), 4, "U absorbed c");
        assert!(ext.query.head().contains(&q.var_id("c").unwrap()));
    }

    #[test]
    fn no_fds_is_identity() {
        let q = parse_cq("Q(x) <- R(x, y)").unwrap();
        let ext = fd_extend_cq(&q, &FdSet::default()).unwrap();
        assert_eq!(ext.query.atoms(), q.atoms());
        assert_eq!(ext.query.head(), q.head());
        assert!(ext.widened.is_empty());
    }

    fn matmul_with_key() -> (Ucq, FdSet, Instance) {
        // Π(x,y) <- A(x,z), B(z,y) with A : x → z. Hard without the FD;
        // free-connex with it (Remark 2 / ICDT'18).
        let u = parse_ucq("Pi(x, y) <- A(x, z), B(z, y)").unwrap();
        let fds = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
        let inst: Instance = [
            ("A", Relation::from_pairs([(1, 10), (2, 20), (3, 10)])),
            ("B", Relation::from_pairs([(10, 5), (10, 6), (20, 7)])),
        ]
        .into_iter()
        .collect();
        (u, fds, inst)
    }

    /// Drains `answers`, insisting that no answer comes twice.
    fn distinct(mut answers: impl Enumerator) -> HashSet<Tuple> {
        let got = answers.collect_all();
        let set: HashSet<Tuple> = got.iter().cloned().collect();
        assert_eq!(got.len(), set.len(), "repeated answer in {got:?}");
        set
    }

    #[test]
    fn matmul_with_key_fd_is_tractable_and_correct() {
        let (u, fds, inst) = matmul_with_key();
        let rewrite = fd_rewrite(&u, &fds).unwrap();
        let eng = rewrite.engine();
        assert!(eng.classification().is_tractable());
        assert_ne!(eng.strategy(), Strategy::Naive);
        let got = distinct(eng.enumerate(&rewrite.instance(&inst).unwrap()).unwrap());
        assert_eq!(got, evaluate_ucq_naive_set(&u, &inst).unwrap());
        assert_eq!(got.len(), 5);
        let naive: HashSet<Tuple> = eng
            .enumerate_naive(&rewrite.instance(&inst).unwrap())
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(naive, got, "the forced-naive baseline projects too");
    }

    #[test]
    fn fd_session_widens_once_and_restarts() {
        let (u, fds, inst) = matmul_with_key();
        let rewrite = fd_rewrite(&u, &fds).unwrap();
        let eng = rewrite.engine();
        let session = eng.session(&rewrite.instance(&inst).unwrap());
        let want = evaluate_ucq_naive_set(&u, &inst).unwrap();
        for _ in 0..3 {
            assert_eq!(distinct(session.enumerate().unwrap()), want);
        }
        assert!(session.decide().unwrap());
        // What the mirror ladder could not do: freeze, and serve threads.
        let frozen = session.freeze().unwrap();
        assert_eq!(distinct(frozen.enumerate().unwrap()), want);
        assert!(frozen.decide().unwrap());
    }

    #[test]
    fn fd_violation_is_rejected_at_runtime() {
        let (u, fds, _) = matmul_with_key();
        let bad: Instance = [
            ("A", Relation::from_pairs([(1, 10), (1, 11)])),
            ("B", Relation::from_pairs([(10, 5)])),
        ]
        .into_iter()
        .collect();
        let rejected = fd_rewrite(&u, &fds).unwrap().instance(&bad);
        assert!(matches!(rejected, Err(EvalError::Schema(_))));
    }

    #[test]
    fn no_fds_behaves_like_plain_engine() {
        let u = parse_ucq("Q(x, y) <- R(x, y)").unwrap();
        let rewrite = fd_rewrite(&u, &FdSet::default()).unwrap();
        assert_eq!(rewrite.answer_arity, 2);
        let eng = rewrite.engine();
        assert!(eng.classification().is_tractable());
        let inst: Instance = [("R", Relation::from_pairs([(1, 2), (3, 4)]))]
            .into_iter()
            .collect();
        let mut ans = eng.enumerate(&rewrite.instance(&inst).unwrap()).unwrap();
        assert_eq!(ans.collect_all().len(), 2);
    }

    #[test]
    fn widened_atoms_get_member_scoped_names() {
        // Two members widening the same relation must not collide.
        let u = parse_ucq(
            "Q1(x, w) <- R(x, y), S(x, w)\n\
             Q2(a, b) <- R(a, c), S(a, b)",
        )
        .unwrap();
        let fds = FdSet::new(vec![Fd::new("R", vec![0], 1)]);
        let rewrite = fd_rewrite(&u, &fds).unwrap();
        let names: Vec<Vec<&str>> = rewrite
            .ucq
            .cqs()
            .iter()
            .map(|cq| cq.atoms().iter().map(|a| a.rel.as_str()).collect())
            .collect();
        assert!(names[0].contains(&"S@fd0.1"));
        assert!(names[1].contains(&"S@fd1.1"));

        let inst: Instance = [
            ("R", Relation::from_pairs([(1, 10), (2, 20)])),
            ("S", Relation::from_pairs([(1, 5), (2, 7)])),
        ]
        .into_iter()
        .collect();
        let widened = rewrite.instance(&inst).unwrap();
        let got = distinct(rewrite.engine().enumerate(&widened).unwrap());
        assert_eq!(got, evaluate_ucq_naive_set(&u, &inst).unwrap());
    }

    #[test]
    fn two_atoms_of_one_relation_widen_apart() {
        // R(x, y) and R(y, x) both absorb z = A(x), keyed on different
        // columns, so their widened relations differ and need two names.
        let u = parse_ucq("Q(x) <- A(x, z), R(x, y), R(y, x)").unwrap();
        let fds = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
        let inst: Instance = [
            ("A", Relation::from_pairs([(1, 10), (2, 20)])),
            ("R", Relation::from_pairs([(1, 2), (2, 1), (3, 3)])),
        ]
        .into_iter()
        .collect();
        let rewrite = fd_rewrite(&u, &fds).unwrap();
        let names = rewrite.ucq.cqs()[0].relation_names();
        assert!(names.contains(&"R@fd0.1") && names.contains(&"R@fd0.2"));
        let want = evaluate_ucq_naive_set(&u, &inst).unwrap();
        assert_eq!(want.len(), 2);
        let widened = rewrite.instance(&inst).unwrap();
        assert_eq!(
            distinct(rewrite.engine().enumerate(&widened).unwrap()),
            want
        );
    }

    #[test]
    fn members_that_grew_by_different_variables_answer_once() {
        // (1, 10) of Q1⁺ and (1, 20) of Q2⁺ are one answer (1) of the union.
        let u = parse_ucq("Q1(x) <- A(x, z)\nQ2(x) <- B(x, w)").unwrap();
        let fds = FdSet::new(vec![Fd::new("A", vec![0], 1), Fd::new("B", vec![0], 1)]);
        let inst: Instance = [
            ("A", Relation::from_pairs([(1, 10), (2, 30)])),
            ("B", Relation::from_pairs([(1, 20), (2, 30)])),
        ]
        .into_iter()
        .collect();
        let rewrite = fd_rewrite(&u, &fds).unwrap();
        assert_eq!((rewrite.answer_arity, rewrite.ucq.head_arity()), (1, 2));
        let eng = rewrite.engine();
        assert_eq!(eng.strategy(), Strategy::Algorithm1, "probes through lifts");
        let widened = rewrite.instance(&inst).unwrap();
        let want = evaluate_ucq_naive_set(&u, &inst).unwrap();
        assert_eq!(want.len(), 2);
        assert_eq!(distinct(eng.enumerate(&widened).unwrap()), want, "one-shot");
        let session = eng.session(&widened);
        assert_eq!(distinct(session.enumerate().unwrap()), want, "session");
        let frozen = session.freeze().unwrap();
        assert_eq!(distinct(frozen.enumerate().unwrap()), want, "frozen");

        let b2 = frozen.build_context().insert_rows(
            &inst.get_shared("B").unwrap(),
            &Relation::from_pairs([(3, 40)]),
        );
        let inst2 = inst.with_relation_shared("B", b2);
        let refrozen = frozen.refreeze(&rewrite.instance(&inst2).unwrap()).unwrap();
        let want2 = evaluate_ucq_naive_set(&u, &inst2).unwrap();
        assert_eq!(want2.len(), 3);
        assert_eq!(distinct(refrozen.enumerate().unwrap()), want2, "refrozen");
        assert_eq!(distinct(frozen.enumerate().unwrap()), want, "old epoch");
    }

    #[test]
    fn an_fd_past_its_relations_arity_is_a_typed_error() {
        let u = parse_ucq("Q(x, y) <- A(x, z), B(z, y)").unwrap();
        for bad in [Fd::new("A", vec![0], 5), Fd::new("A", vec![2], 0)] {
            let err = fd_rewrite(&u, &FdSet::new(vec![bad.clone()])).unwrap_err();
            let msg = err.message();
            assert!(msg.contains("functional dependency A"), "{msg}");
            assert!(msg.contains("arity 2"), "{bad:?}: {msg}");
        }
        // An FD on a relation the union does not read is no error.
        let other = FdSet::new(vec![Fd::new("C", vec![0], 5)]);
        assert_eq!(fd_rewrite(&u, &other).unwrap().ucq.head_arity(), 2);
        // A widening does not lend its columns to FDs: A's FD widens B(x, w)
        // to B(x, w, z), yet an FD on B still names B's own two columns.
        let u = parse_ucq("Q(x) <- A(x, z), B(x, w)").unwrap();
        let fds = vec![Fd::new("A", vec![0], 1), Fd::new("B", vec![2], 0)];
        let err = fd_rewrite(&u, &FdSet::new(fds)).unwrap_err();
        assert!(err.message().contains("B: [2] -> 0"), "{err}");
    }

    #[test]
    fn differing_extended_arities_are_a_typed_error() {
        let u = parse_ucq("Q1(x) <- A(x, z)\nQ2(x) <- B(x, w)").unwrap();
        let only_a = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
        let err = fd_rewrite(&u, &only_a).unwrap_err();
        assert!(err.message().contains("arity mismatch"), "{err}");
    }
}

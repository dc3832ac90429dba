//! End-to-end Remark 2: classify and evaluate a UCQ *under functional
//! dependencies* by extending first, then running the ordinary machinery.
//!
//! [`FdUcqEngine::new`] FD-extends every member (renaming widened atoms per
//! member so different members' widenings of the same relation cannot
//! collide), classifies the extended union, and at evaluation time widens
//! the instance accordingly and projects answers back onto the original
//! head positions. The projection is injective — every appended head
//! variable is functionally determined by the original head values — so no
//! extra deduplication is needed.
//!
//! Limitation (documented; the paper leaves the FD-composition informal):
//! per-member renaming of *widened* atoms hides cross-member provisions
//! through those atoms, and members whose FD-extensions end up with
//! different head arities are rejected. The flagship Remark 2 scenario —
//! a query made free-connex by its keys, like `Π(x,y) ← A(x,z), B(z,y)`
//! with `A : x → z` — is fully supported.

use crate::engine::{Strategy, UcqAnswers, UcqEngine};
use crate::fd::{extend_instance, fd_extend_cq, FdExtension, FdSet};
use crate::search::SearchConfig;
use ucq_enumerate::Enumerator;
use ucq_query::{QueryError, Ucq};
use ucq_storage::{Instance, Tuple};
use ucq_yannakakis::EvalError;

/// A UCQ engine operating under a set of functional dependencies.
pub struct FdUcqEngine {
    original: Ucq,
    fds: FdSet,
    extensions: Vec<FdExtension>,
    engine: UcqEngine,
    original_arity: usize,
}

impl FdUcqEngine {
    /// FD-extends, renames widened atoms, and classifies.
    pub fn new(ucq: Ucq, fds: FdSet) -> Result<FdUcqEngine, QueryError> {
        FdUcqEngine::with_config(ucq, fds, &SearchConfig::default())
    }

    /// As [`FdUcqEngine::new`] with explicit search bounds.
    pub fn with_config(
        ucq: Ucq,
        fds: FdSet,
        cfg: &SearchConfig,
    ) -> Result<FdUcqEngine, QueryError> {
        let mut extensions = Vec::with_capacity(ucq.len());
        for (i, cq) in ucq.cqs().iter().enumerate() {
            let mut ext = fd_extend_cq(cq, &fds)?;
            rename_widened(&mut ext, i);
            extensions.push(ext);
        }
        let extended = Ucq::new(extensions.iter().map(|e| e.query.clone()).collect())?;
        let engine = UcqEngine::with_config(extended, cfg);
        Ok(FdUcqEngine {
            original_arity: ucq.head_arity(),
            original: ucq,
            fds,
            extensions,
            engine,
        })
    }

    /// The original union.
    pub fn original(&self) -> &Ucq {
        &self.original
    }

    /// The classification of the FD-extended union — the Remark 2 verdict.
    pub fn classification(&self) -> &crate::classify::Classification {
        self.engine.classification()
    }

    /// The strategy evaluation will use.
    pub fn strategy(&self) -> Strategy {
        self.engine.strategy()
    }

    /// Validates the FDs and widens `inst` once (the Remark 2 instance
    /// translation).
    fn widen(&self, inst: &Instance) -> Result<Instance, EvalError> {
        if !self.fds.holds_on(inst) {
            return Err(EvalError::Schema(
                "instance violates the declared functional dependencies".into(),
            ));
        }
        let mut widened = inst.clone();
        for (i, ext) in self.extensions.iter().enumerate() {
            widened = widen_for_member(&self.original, i, ext, &widened);
        }
        Ok(widened)
    }

    /// Evaluates over `inst`, which must satisfy the FDs.
    pub fn enumerate(&self, inst: &Instance) -> Result<FdAnswers, EvalError> {
        Ok(FdAnswers {
            inner: self.engine.enumerate(&self.widen(inst)?)?,
            prefix: self.original_arity,
        })
    }

    /// Opens a session over `inst`: the FD validation and instance widening
    /// run once, and the inner [`EvalSession`](crate::EvalSession) reuses
    /// its preprocessing across repeated enumerations. (The session clones
    /// the widened instance, which is cheap: relation payloads are
    /// `Arc`-shared.)
    pub fn session<'e>(&'e self, inst: &Instance) -> Result<FdSession<'e>, EvalError> {
        let widened = self.widen(inst)?;
        Ok(FdSession {
            session: self.engine.session(&widened),
            prefix: self.original_arity,
        })
    }
}

/// A pinned FD-engine session: widen once, enumerate many times, each
/// answer projected back onto the original head positions.
pub struct FdSession<'e> {
    session: crate::EvalSession<'e>,
    prefix: usize,
}

impl FdSession<'_> {
    /// Starts an enumeration; preprocessing is reused across calls.
    pub fn enumerate(&self) -> Result<FdAnswers, EvalError> {
        Ok(FdAnswers {
            inner: self.session.enumerate()?,
            prefix: self.prefix,
        })
    }

    /// Whether the (FD-constrained) union has any answer on the pinned
    /// instance.
    pub fn decide(&self) -> Result<bool, EvalError> {
        self.session.decide()
    }
}

fn rename_widened(ext: &mut FdExtension, member: usize) {
    let widened_targets: std::collections::HashSet<usize> =
        ext.widened.iter().map(|(t, _)| *t).collect();
    if widened_targets.is_empty() {
        return;
    }
    let mut atoms = ext.query.atoms().to_vec();
    for &t in &widened_targets {
        atoms[t].rel = format!("{}@fd{member}", atoms[t].rel);
    }
    ext.query = ucq_query::Cq::new(
        ext.query.name(),
        ext.query.head().to_vec(),
        atoms,
        ext.query.var_names().to_vec(),
    )
    .expect("renaming preserves validity");
}

fn widen_for_member(original: &Ucq, member: usize, ext: &FdExtension, inst: &Instance) -> Instance {
    extend_instance(&original.cqs()[member], ext, inst)
}

/// Answers of an FD-engine run: the extended union's answers projected back
/// onto the original head positions.
pub struct FdAnswers {
    inner: UcqAnswers,
    prefix: usize,
}

impl Enumerator for FdAnswers {
    fn next(&mut self) -> Option<Tuple> {
        self.inner
            .next()
            .map(|t| Tuple(t.values()[..self.prefix].into()))
    }

    fn expect_at_most(&mut self, rows: usize) {
        self.inner.expect_at_most(rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::Fd;
    use crate::naive_ucq::evaluate_ucq_naive_set;
    use std::collections::HashSet;
    use ucq_query::parse_ucq;
    use ucq_storage::Relation;

    #[test]
    fn matmul_with_key_fd_is_tractable_and_correct() {
        // Π(x,y) <- A(x,z), B(z,y) with A : x → z. Hard without the FD;
        // free-connex with it (Remark 2 / ICDT'18).
        let u = parse_ucq("Pi(x, y) <- A(x, z), B(z, y)").unwrap();
        let fds = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
        let eng = FdUcqEngine::new(u.clone(), fds).unwrap();
        assert!(eng.classification().is_tractable());
        assert_ne!(eng.strategy(), Strategy::Naive);

        let inst: Instance = [
            ("A", Relation::from_pairs([(1, 10), (2, 20), (3, 10)])),
            ("B", Relation::from_pairs([(10, 5), (10, 6), (20, 7)])),
        ]
        .into_iter()
        .collect();
        let mut ans = eng.enumerate(&inst).unwrap();
        let got: HashSet<Tuple> = ans.collect_all().into_iter().collect();
        let want = evaluate_ucq_naive_set(&u, &inst).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn fd_session_widens_once_and_restarts() {
        let u = parse_ucq("Pi(x, y) <- A(x, z), B(z, y)").unwrap();
        let fds = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
        let eng = FdUcqEngine::new(u.clone(), fds).unwrap();
        let inst: Instance = [
            ("A", Relation::from_pairs([(1, 10), (2, 20), (3, 10)])),
            ("B", Relation::from_pairs([(10, 5), (10, 6), (20, 7)])),
        ]
        .into_iter()
        .collect();
        let session = eng.session(&inst).unwrap();
        let want = evaluate_ucq_naive_set(&u, &inst).unwrap();
        for _ in 0..3 {
            let got: HashSet<Tuple> = session
                .enumerate()
                .unwrap()
                .collect_all()
                .into_iter()
                .collect();
            assert_eq!(got, want);
        }
        assert!(session.decide().unwrap());
    }

    #[test]
    fn fd_violation_is_rejected_at_runtime() {
        let u = parse_ucq("Pi(x, y) <- A(x, z), B(z, y)").unwrap();
        let fds = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
        let eng = FdUcqEngine::new(u, fds).unwrap();
        let bad: Instance = [
            ("A", Relation::from_pairs([(1, 10), (1, 11)])),
            ("B", Relation::from_pairs([(10, 5)])),
        ]
        .into_iter()
        .collect();
        assert!(eng.enumerate(&bad).is_err());
    }

    #[test]
    fn no_fds_behaves_like_plain_engine() {
        let u = parse_ucq("Q(x, y) <- R(x, y)").unwrap();
        let eng = FdUcqEngine::new(u.clone(), FdSet::default()).unwrap();
        assert!(eng.classification().is_tractable());
        let inst: Instance = [("R", Relation::from_pairs([(1, 2), (3, 4)]))]
            .into_iter()
            .collect();
        let mut ans = eng.enumerate(&inst).unwrap();
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
        let eng = FdUcqEngine::new(u.clone(), fds).unwrap();
        let names: Vec<Vec<&str>> = eng
            .engine
            .ucq()
            .cqs()
            .iter()
            .map(|cq| cq.atoms().iter().map(|a| a.rel.as_str()).collect())
            .collect();
        assert!(names[0].contains(&"S@fd0"));
        assert!(names[1].contains(&"S@fd1"));

        let inst: Instance = [
            ("R", Relation::from_pairs([(1, 10), (2, 20)])),
            ("S", Relation::from_pairs([(1, 5), (2, 7)])),
        ]
        .into_iter()
        .collect();
        let mut ans = eng.enumerate(&inst).unwrap();
        let got: HashSet<Tuple> = ans.collect_all().into_iter().collect();
        let want = evaluate_ucq_naive_set(&u, &inst).unwrap();
        assert_eq!(got, want);
    }
}

//! Unions of conjunctive queries.

use crate::cq::Cq;
use crate::error::QueryError;

/// A union of conjunctive queries `Q = Q1 ∪ … ∪ Qℓ`.
///
/// The paper requires all CQs in a union to share one set of free variables.
/// Each CQ here owns its variable namespace, so we align heads *positionally*
/// (all heads must have the same arity); an answer is the tuple of values the
/// head positions take. This is equivalent to the paper's convention after
/// renaming each member's head variables to the shared ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ucq {
    cqs: Vec<Cq>,
}

impl Ucq {
    /// Creates a union. Requires at least one CQ and equal head arities.
    pub fn new(cqs: Vec<Cq>) -> Result<Ucq, QueryError> {
        if cqs.is_empty() {
            return Err(QueryError::new("a UCQ needs at least one CQ"));
        }
        let arity = cqs[0].head().len();
        for cq in &cqs[1..] {
            if cq.head().len() != arity {
                return Err(QueryError::new(format!(
                    "head arity mismatch: {} has arity {}, expected {}",
                    cq.name(),
                    cq.head().len(),
                    arity
                )));
            }
        }
        Ok(Ucq { cqs })
    }

    /// Wraps a single CQ as a trivial union.
    pub fn single(cq: Cq) -> Ucq {
        Ucq { cqs: vec![cq] }
    }

    /// The member CQs.
    pub fn cqs(&self) -> &[Cq] {
        &self.cqs
    }

    /// Number of member CQs.
    pub fn len(&self) -> usize {
        self.cqs.len()
    }

    /// Always false (constructor enforces ≥ 1 member).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Head arity common to all members.
    pub fn head_arity(&self) -> usize {
        self.cqs[0].head().len()
    }

    /// Whether every member is self-join free.
    pub fn is_self_join_free(&self) -> bool {
        self.cqs.iter().all(Cq::is_self_join_free)
    }

    /// Returns a copy with member `i` replaced.
    #[must_use]
    pub fn with_member(&self, i: usize, cq: Cq) -> Ucq {
        let mut cqs = self.cqs.clone();
        cqs[i] = cq;
        Ucq { cqs }
    }

    /// Returns a copy without member `i`. Panics if it would leave the union
    /// empty.
    #[must_use]
    pub fn without_member(&self, i: usize) -> Ucq {
        assert!(self.cqs.len() > 1, "cannot remove the last CQ");
        let mut cqs = self.cqs.clone();
        cqs.remove(i);
        Ucq { cqs }
    }

    /// A structural fingerprint of the union: member count, and per member
    /// the head variables and atoms (relation name + argument shape).
    /// Member names are deliberately excluded — `Q1(x) <- R(x)` fingerprints
    /// the same however the rule is titled. Stable within a process (used
    /// as half of a plan-cache key, paired with a context's stats epoch);
    /// equal unions always collide, distinct unions collide with ordinary
    /// 64-bit hash probability.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.cqs.len().hash(&mut h);
        for cq in &self.cqs {
            cq.head().hash(&mut h);
            cq.atoms().len().hash(&mut h);
            for atom in cq.atoms() {
                atom.rel.hash(&mut h);
                atom.args.hash(&mut h);
            }
        }
        h.finish()
    }

    /// All relation names mentioned anywhere in the union.
    pub fn relation_names(&self) -> Vec<&str> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for cq in &self.cqs {
            for r in cq.relation_names() {
                if seen.insert(r) {
                    out.push(r);
                }
            }
        }
        out
    }
}

impl std::fmt::Display for Ucq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, cq) in self.cqs.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{cq}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_mismatch_rejected() {
        let q1 = Cq::build("Q1", &["x", "y"], &[("R", &["x", "y"])]).unwrap();
        let q2 = Cq::build("Q2", &["x"], &[("R", &["x", "y"])]).unwrap();
        assert!(Ucq::new(vec![q1, q2]).is_err());
    }

    #[test]
    fn empty_union_rejected() {
        assert!(Ucq::new(vec![]).is_err());
    }

    #[test]
    fn accessors() {
        let q1 = Cq::build("Q1", &["x", "y"], &[("R", &["x", "y"])]).unwrap();
        let q2 = Cq::build("Q2", &["a", "b"], &[("S", &["a", "b"])]).unwrap();
        let u = Ucq::new(vec![q1, q2]).unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u.head_arity(), 2);
        assert!(u.is_self_join_free());
        assert_eq!(u.relation_names(), vec!["R", "S"]);
        assert_eq!(u.without_member(0).len(), 1);
    }

    #[test]
    fn single_wraps() {
        let q = Cq::build("Q", &["x"], &[("R", &["x"])]).unwrap();
        assert_eq!(Ucq::single(q).len(), 1);
    }

    #[test]
    fn fingerprint_ignores_names_but_not_structure() {
        let a = Ucq::single(Cq::build("Q1", &["x"], &[("R", &["x", "y"])]).unwrap());
        let b = Ucq::single(Cq::build("Other", &["x"], &[("R", &["x", "y"])]).unwrap());
        assert_eq!(a.fingerprint(), b.fingerprint(), "names don't matter");
        let c = Ucq::single(Cq::build("Q1", &["x"], &[("S", &["x", "y"])]).unwrap());
        assert_ne!(a.fingerprint(), c.fingerprint(), "relation names do");
        let d = Ucq::single(Cq::build("Q1", &["y"], &[("R", &["x", "y"])]).unwrap());
        assert_ne!(a.fingerprint(), d.fingerprint(), "heads do");
        let two = Ucq::new(vec![
            Cq::build("Q1", &["x"], &[("R", &["x", "y"])]).unwrap(),
            Cq::build("Q2", &["x"], &[("R", &["x", "y"])]).unwrap(),
        ])
        .unwrap();
        assert_ne!(a.fingerprint(), two.fingerprint(), "member count does");
    }
}

//! # ucq — constant-delay enumeration for unions of conjunctive queries
//!
//! A Rust implementation of Carmeli & Kröll, *On the Enumeration Complexity
//! of Unions of Conjunctive Queries* (PODS 2019): free-connex UCQs, union
//! extensions, the `DelayClin` evaluation pipelines (Algorithm 1 and the
//! Theorem 12 pipeline), the classifier with hardness witnesses, and the
//! paper's lower-bound reductions run forward.
//!
//! ## Quickstart
//!
//! ```
//! use ucq::prelude::*;
//!
//! // Example 2 of the paper: Q1 is intractable alone, but the union is
//! // free-connex thanks to Q2 providing {x, z, y}.
//! let union = parse_ucq(
//!     "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
//!      Q2(x, y, w) <- R1(x, y), R2(y, w)",
//! ).unwrap();
//!
//! let engine = UcqEngine::new(union);
//! assert!(engine.classification().is_tractable());
//!
//! let instance: Instance = [
//!     ("R1", Relation::from_pairs([(1, 2)])),
//!     ("R2", Relation::from_pairs([(2, 3)])),
//!     ("R3", Relation::from_pairs([(3, 4)])),
//! ].into_iter().collect();
//!
//! let mut answers = engine.enumerate(&instance).unwrap();
//! let all = answers.collect_all();
//! assert!(!all.is_empty());
//!
//! // Serving repeated queries: a session pins the instance and reuses the
//! // linear preprocessing (interned storage, indexes, member engines).
//! let session = engine.session(&instance);
//! for _ in 0..3 {
//!     assert_eq!(session.enumerate().unwrap().collect_all(), all);
//! }
//! ```
//!
//! The workspace crates are re-exported here:
//!
//! | module | contents |
//! |---|---|
//! | [`hypergraph`] | GYO, join trees, ext-S-connex trees, free-paths |
//! | [`storage`] | values, relations, indexes, instances |
//! | [`query`] | CQ/UCQ model, parser, homomorphisms |
//! | [`yannakakis`] | full reducer, CDY enumeration, naive baseline |
//! | [`enumerate`] | id-level block enumerator spine, Cheater's Lemma, delay stats |
//! | [`core`] | classification, union extensions, pipelines |
//! | [`reductions`] | executable lower bounds (BMM, triangles, cliques) |
//! | [`workloads`] | the paper catalog and instance generators |

#![forbid(unsafe_code)]

pub use ucq_core as core;
pub use ucq_enumerate as enumerate;
pub use ucq_hypergraph as hypergraph;
pub use ucq_query as query;
pub use ucq_reductions as reductions;
pub use ucq_storage as storage;
pub use ucq_workloads as workloads;
pub use ucq_yannakakis as yannakakis;

/// The names most programs need.
pub mod prelude {
    pub use ucq_core::{
        classify, fd_rewrite, Classification, CqStatus, EvalSession, Fd, FdRewrite, FdSet,
        FrozenSession, HardnessWitness, Hypothesis, Strategy, UcqEngine, Verdict,
    };
    pub use ucq_enumerate::{measure, DelayProfile, Enumerator};
    pub use ucq_query::{parse_cq, parse_ucq, Cq, Ucq};
    pub use ucq_storage::{
        CtxView, Dictionary, EvalContext, FrozenContext, Instance, Relation, Tuple, Value, ValueId,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_pipeline() {
        let u = parse_ucq("Q(x, y) <- R(x, y)").unwrap();
        let engine = UcqEngine::new(u);
        assert!(engine.classification().is_tractable());
    }
}

//! # ucq-core — the paper's primary contribution
//!
//! Union extensions, free-connex UCQs, classification, and `DelayClin`
//! evaluation pipelines from Carmeli & Kröll, *On the Enumeration
//! Complexity of Unions of Conjunctive Queries* (PODS 2019).
//!
//! Quick tour:
//!
//! * [`classify()`] — three-way verdict (free-connex / intractable-with-
//!   witness / unknown) for any UCQ, implementing Theorems 3, 4, 12, 17,
//!   19, 29, 33, 35 plus Lemmas 14/15/16/25/26;
//! * [`UcqEngine`] — classify once, evaluate many instances: Algorithm 1
//!   for unions of free-connex CQs, the Theorem 12 union-extension
//!   pipeline otherwise, naive fallback outside `DelayClin`;
//! * [`CostedSearch`] / [`UcqPipelinePrep`] — the one union-extension
//!   search, whose certificate the classifier reports and whose cheapest
//!   plan the engine runs, and the Theorem 12 preprocessing it drives;
//! * [`provides`] / [`search`] — Definition 7's provided variable sets and
//!   the fixpoint over union extensions (Definition 10/11);
//! * [`guards`] — Definitions 23/32/34 (free-path/bypass guards, union
//!   guards, isolation).

#![forbid(unsafe_code)]

pub mod algorithm1;
pub mod body_iso;
pub mod classify;
pub mod cost;
pub mod engine;
pub mod fd;
pub mod guards;
pub mod lemma8;
pub mod naive_ucq;
pub mod pipeline;
pub mod plan;
pub mod provides;
pub mod request;
pub mod search;
mod static_asserts;

pub use algorithm1::{Algorithm1, Algorithm1Ids};
pub use body_iso::{align_body_isomorphic, AlignedUnion};
pub use classify::{
    classify, cq_status, Classification, CqStatus, HardnessWitness, Hypothesis, Verdict,
};
pub use cost::{CostModel, CostedPlan, CostedSearch};
pub use engine::{EvalSession, FrozenSession, PlannerStats, Strategy, UcqAnswers, UcqEngine};
pub use fd::{extend_instance, fd_extend_cq, fd_rewrite, Fd, FdExtension, FdRewrite, FdSet};
pub use naive_ucq::{
    evaluate_ucq_naive, evaluate_ucq_naive_ids_in, evaluate_ucq_naive_in, evaluate_ucq_naive_set,
};
pub use pipeline::UcqPipelinePrep;
pub use plan::{ExtensionPlan, PlannedAtom};
pub use provides::{compute_availability, Availability, Provenance};
pub use request::{RequestError, Served};
pub use search::{ConnexOracle, SearchConfig};
// The error type every engine/session entry point returns; re-exported so
// downstream crates (serve drivers, workloads) need not depend on the
// yannakakis crate for their signatures.
pub use ucq_yannakakis::EvalError;

//! The Yannakakis / Constant-Delay-Yannakakis evaluation engine.
//!
//! Implements the positive side of the paper's Theorem 3: after linear
//! preprocessing (normalization + the Yannakakis full reducer over an
//! ext-S-connex tree), the answers of an `S`-connex acyclic CQ are
//! enumerated with constant delay and tested for membership in constant
//! time. Also provides the naive hash-join oracle the tests and the
//! benchmark compare against.

#![forbid(unsafe_code)]

pub mod cdy;
pub mod naive;
pub mod noderel;
pub mod reducer;

pub use cdy::{CdyEngine, CdyIter, ContainsScratch, EvalError, OwnedCdyIter};
pub use naive::{evaluate_cq_naive, evaluate_cq_naive_ids_in, evaluate_cq_naive_in, IdTable};
pub use noderel::{atom_signature, NodeRel, SharedShapes};
pub use reducer::{full_reduce, live_rows};

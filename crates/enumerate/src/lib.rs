//! Enumeration framework: the value-level [`Enumerator`] abstraction, the
//! id-level block-at-a-time spine ([`IdEnumerator`]/[`IdBlock`]), the
//! Cheater's Lemma compiler ([`Cheater`], Lemma 5 of the paper), and
//! wall-clock delay instrumentation ([`DelayProfile`]).
//!
//! # The id-level spine
//!
//! Answers flow between stages as blocks of interned
//! [`ValueId`](ucq_storage::ValueId) rows; the decode to owned
//! [`Tuple`](ucq_storage::Tuple)s happens exactly once, a block at a time,
//! at the outermost API boundary (the [`IdDecoder`] facade every strategy
//! arm ends in), and not at all for answers that dedup discards or that
//! id-aware callers consume through [`Cheater::next_ids`]. Lemma 5's
//! pacing accounting is preserved: pump budgets count inner *results*,
//! blocks only amortize virtual-call and buffer overhead (see
//! [`cheater`]).

#![forbid(unsafe_code)]

pub mod budget;
pub mod cheater;
pub mod delay;
pub mod enumerator;
pub mod idenum;

pub use budget::{Budgeted, CancelToken, QueryBudget, Truncation};
pub use cheater::{Cheater, CheaterStats, PumpBudgetError};
pub use delay::{measure, measure_ids, DelayProfile};
pub use enumerator::{Enumerator, VecEnumerator};
pub use idenum::{IdChainEnumerator, IdDecoder, IdEnumerator, IdVecEnumerator, DEFAULT_BLOCK_ROWS};

pub use ucq_storage::IdBlock;

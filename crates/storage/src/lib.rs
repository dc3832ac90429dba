//! Relational storage substrate for the `ucq-enum` workspace.
//!
//! Values ([`Value`]), owned tuples ([`Tuple`]), flat row-major relations
//! ([`Relation`]), and named instances ([`Instance`]) form the ingestion/API
//! layer. The value domain includes the tagged constants and `⊥` filler used
//! by the paper's lower-bound encodings (Lemma 14, Examples 18/20/22/31/39).
//!
//! Execution runs on the interned layer: a [`Dictionary`] maps values to
//! dense [`ValueId`]s, [`IdRel`] is the columnar id mirror of a relation,
//! [`HashIndex`]/[`IdSet`] provide O(1) lookups with allocation-free
//! borrowed `&[ValueId]` keys ([`InlineKey`]), and [`EvalContext`] is the
//! per-instance session object caching interned relations, normalized
//! projections and indexes ([`IndexCache`]) across every pipeline that
//! evaluates the same instance.

#![forbid(unsafe_code)]

pub mod block;
pub mod context;
pub mod dictionary;
pub mod epoch;
pub mod faults;
pub mod frozen;
pub mod hash;
pub mod idrel;
pub mod index;
pub mod instance;
pub mod key;
pub mod relation;
mod static_asserts;
pub mod stats;
pub mod sync;
pub mod text;
pub mod tuple;
pub mod value;

pub use block::IdBlock;
pub use context::{ContextStats, EvalContext, IndexCache, IndexUse, IngestStats, RelChurn};
pub use dictionary::{Dictionary, ValueId};
pub use epoch::EpochCell;
pub use frozen::{CtxView, FrozenContext};
pub use hash::{
    fast_map_with_capacity, fast_set_with_capacity, fx_hash_of, seeded_map_with_capacity, FastMap,
    FastSet, FxBuildHasher, SeededFastMap, SeededFxBuildHasher,
};
pub use idrel::{normalize_ranked, normalize_ranked_append, IdRel, IdSet};
pub use index::{HashIndex, ProbeBatch, RowSet};
pub use instance::Instance;
pub use key::InlineKey;
pub use relation::Relation;
pub use stats::RelStats;
pub use text::{parse_instance, to_text, TextError};
pub use tuple::Tuple;
pub use value::Value;

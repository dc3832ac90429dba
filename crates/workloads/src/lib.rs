//! Workloads: the paper's query catalog, random instance generators, and
//! the load driver ([`drive()`]).

#![forbid(unsafe_code)]

pub mod catalog;
pub mod drive;
pub mod generators;
pub mod random;
mod static_asserts;

pub use catalog::{by_id, catalog, example31, CatalogEntry, PaperVerdict};
pub use drive::{drive, Churn, LoadReport, LoadSpec};
pub use generators::{example39, path_cq, residue_pairs, star_cq};
pub use random::{random_instance, InstanceSpec};

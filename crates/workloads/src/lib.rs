//! Workloads: the paper's query catalog, random instance generators, and
//! the load driver — [`drive`] (in `rotation`), shaped by a [`LoadSpec`]
//! (`resilient`), reporting a [`LoadReport`] (`serving`).

#![forbid(unsafe_code)]

pub mod catalog;
pub mod generators;
pub mod random;
pub mod resilient;
pub mod rotation;
pub mod serving;
mod static_asserts;

pub use catalog::{by_id, catalog, example31, CatalogEntry, PaperVerdict};
pub use generators::{example39, path_cq, star_cq};
pub use random::{random_instance, InstanceSpec};
pub use resilient::LoadSpec;
pub use rotation::{drive, Churn};
pub use serving::LoadReport;

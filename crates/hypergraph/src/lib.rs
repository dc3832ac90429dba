//! Hypergraph substrate for the `ucq-enum` workspace.
//!
//! This crate implements the structural machinery of Carmeli & Kröll,
//! *On the Enumeration Complexity of Unions of Conjunctive Queries*
//! (PODS 2019), §2:
//!
//! * [`VSet`] — 64-bit vertex bitsets;
//! * [`Hypergraph`] — query hypergraphs with Gaifman adjacency;
//! * [`gyo`](mod@gyo) — the GYO reduction and α-acyclicity;
//! * [`join_tree`](mod@join_tree) — join trees, running-intersection validation, and
//!   [`ConnexTree`], the ext-S-connex trees of Figure 1;
//! * [`connex`] — S-connexity tests and the constructive ext-S-connex tree
//!   algorithm;
//! * [`paths`] — chordless paths and free-paths;
//! * [`cliques`] — hypercliques (the Tetra⟨k⟩ objects behind Theorem 3(3)).

#![forbid(unsafe_code)]

pub mod cliques;
pub mod connex;
pub mod gyo;
pub mod hypergraph;
pub mod join_tree;
pub mod paths;
pub mod vset;

pub use connex::{ext_s_connex_tree, is_s_connex, join_tree};
pub use gyo::{gyo, gyo_restricted, is_acyclic, GyoRun};
pub use hypergraph::Hypergraph;
pub use join_tree::{ConnexTree, JoinTree, JtNode};
pub use paths::{free_paths, has_free_path, FreePath};
pub use vset::{subsets_of, VSet, MAX_VERTICES};

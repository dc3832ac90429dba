//! Executable lower-bound reductions from the paper, run *forward*: encode
//! the hard combinatorial problem into an instance, enumerate the union,
//! decode the answer — validating each reduction against a direct
//! combinatorial algorithm.
//!
//! * [`matmul`] — Boolean matrix multiplication via the Π query
//!   (Theorem 3(2)) and via Example 20 (Lemma 25);
//! * [`triangles`] — triangle detection via Example 18 (Theorem 17);
//! * [`cliques`] — 4-clique detection via Examples 22 (Lemma 26), 31 and
//!   39;
//! * [`tagging`] — the Lemma 14 disjoint-domain exact reduction;
//! * [`graph`] / [`matrix`] — the combinatorial substrates.

#![forbid(unsafe_code)]

pub mod cliques;
pub mod graph;
pub mod matmul;
pub mod matrix;
pub mod tagging;
pub mod triangles;

pub use cliques::{
    encode_example22, encode_example31, encode_example39, example22_ucq, example31_k4_ucq,
    example39_ucq, has_4clique_via_example22, has_4clique_via_example31, has_4clique_via_example39,
};
pub use graph::Graph;
pub use matmul::{
    bmm_via_cq, bmm_via_example20, encode_example20, encode_matrices, example20_rewritten,
    matmul_query,
};
pub use matrix::BoolMat;
pub use tagging::{decode_answer, encode_instance};
pub use triangles::{
    encode_example18, example18_answers, example18_ucq, has_triangle_via_example18,
};

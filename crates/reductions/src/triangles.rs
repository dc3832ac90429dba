//! Triangle detection through the Example 18 union.
//!
//! Example 18's three-member union (two cyclic CQs and a hard acyclic one)
//! decides triangle existence: edges are encoded with variable-tagged
//! endpoints, `Q1` answers correspond to triangles `a < b < c`, `Q2`
//! answers to rotated triangles, and `Q3` returns nothing.

use crate::graph::Graph;
use ucq_core::evaluate_ucq_naive;
use ucq_query::{parse_ucq, Ucq};
use ucq_storage::{Instance, Relation, Tuple, Value};

/// Variable tags used in the encoding (`x`, `y`, `z` of the paper).
const TAG_X: u32 = 0;
const TAG_Y: u32 = 1;
const TAG_Z: u32 = 2;

/// The Example 18 union.
pub fn example18_ucq() -> Ucq {
    parse_ucq(
        "Q1(x, y) <- R1(x, y), R2(y, u), R3(x, u)\n\
         Q2(x, y) <- R1(y, v), R2(v, x), R3(y, x)\n\
         Q3(x, y) <- R1(x, z), R2(y, z)",
    )
    .expect("well-formed")
}

/// Encodes a graph per Example 18: for every edge `(u, v)` with `u < v`,
/// `R1 += ((u,x),(v,y))`, `R2 += ((u,y),(v,z))`, `R3 += ((u,x),(v,z))`.
pub fn encode_example18(g: &Graph) -> Instance {
    let mut r1 = Relation::new(2);
    let mut r2 = Relation::new(2);
    let mut r3 = Relation::new(2);
    for (u, v) in g.edges() {
        let (u, v) = (u as i64, v as i64);
        r1.push_row(&[Value::tagged(TAG_X, u), Value::tagged(TAG_Y, v)]);
        r2.push_row(&[Value::tagged(TAG_Y, u), Value::tagged(TAG_Z, v)]);
        r3.push_row(&[Value::tagged(TAG_X, u), Value::tagged(TAG_Z, v)]);
    }
    let mut inst = Instance::new();
    inst.insert("R1", r1);
    inst.insert("R2", r2);
    inst.insert("R3", r3);
    inst
}

/// All answers of the Example 18 union over the encoded graph.
pub fn example18_answers(g: &Graph) -> Vec<Tuple> {
    evaluate_ucq_naive(&example18_ucq(), &encode_example18(g)).expect("evaluates")
}

/// Decides triangle existence through the union (`Decide⟨Q⟩`).
pub fn has_triangle_via_example18(g: &Graph) -> bool {
    !example18_answers(g).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_direct_detection_on_random_graphs() {
        for seed in 0..6 {
            let g = Graph::gnp(24, 0.12 + 0.03 * seed as f64, seed);
            assert_eq!(
                has_triangle_via_example18(&g),
                g.has_triangle(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn triangle_free_graph_yields_no_answers() {
        // A 6-cycle has no triangles.
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6);
        }
        assert!(example18_answers(&g).is_empty());
    }

    #[test]
    fn q1_answers_name_the_two_smallest_vertices() {
        // Single triangle 2-5-7: Q1 must return ((2,x),(5,y)).
        let g = Graph::new(8).with_clique(&[2, 5, 7]);
        let answers = example18_answers(&g);
        assert!(!answers.is_empty());
        let expected = Tuple::from_row(&[Value::tagged(TAG_X, 2), Value::tagged(TAG_Y, 5)]);
        assert!(
            answers.contains(&expected),
            "expected {expected} among {answers:?}"
        );
    }

    #[test]
    fn q3_contributes_nothing() {
        // Q3(x,y) <- R1(x,z), R2(y,z) needs a z-value in R1's second column
        // (tagged y) equal to one in R2's second column (tagged z):
        // impossible by tagging, so all answers come from Q1/Q2 and hence
        // from genuine triangles.
        let g = Graph::gnp(16, 0.5, 3);
        for t in example18_answers(&g) {
            let Value::Tagged { val: a, .. } = t[0] else {
                panic!()
            };
            let Value::Tagged { val: b, .. } = t[1] else {
                panic!()
            };
            // Both endpoints of every answer lie on a common triangle edge.
            assert!(g.has_edge(a as usize, b as usize));
        }
    }
}

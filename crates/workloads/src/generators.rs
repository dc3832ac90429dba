//! Parametric query families for scaling studies, and adversarial
//! instance shapes.
//!
//! The catalog holds the paper's fixed examples; these generators produce
//! the natural families around them: path joins of any length (with full or
//! endpoint-only heads — the free-connex/hard axis of Theorem 3), star
//! joins (the Example 31 shape), and the general Example 39 family.
//! [`residue_pairs`] is an instance shape that once broke constant delay.

use ucq_query::{parse_cq, parse_ucq, Cq, Ucq};
use ucq_storage::Relation;

/// A path join `Q(…) ← R1(x0,x1), …, Rk(x_{k-1},x_k)`.
///
/// With `full_head = true` every variable is free (free-connex for every
/// `k`); with `full_head = false` only the endpoints are free, which is the
/// hard projection (a length-`k` free-path) for every `k ≥ 2`.
pub fn path_cq(hops: usize, full_head: bool) -> Cq {
    assert!(hops >= 1, "need at least one atom");
    let head: Vec<String> = if full_head {
        (0..=hops).map(|i| format!("x{i}")).collect()
    } else {
        vec!["x0".to_string(), format!("x{hops}")]
    };
    let atoms: Vec<String> = (0..hops)
        .map(|i| format!("R{}(x{}, x{})", i + 1, i, i + 1))
        .collect();
    let text = format!("P{hops}({}) <- {}", head.join(", "), atoms.join(", "));
    parse_cq(&text).expect("generated query is well-formed")
}

/// A star join `Q(head…) ← R1(x1,z), …, Rk(xk,z)` with the given head
/// variables (use `"z"` and `"xi"` names).
pub fn star_cq(legs: usize, head: &[&str]) -> Cq {
    assert!(legs >= 1);
    let atoms: Vec<String> = (1..=legs).map(|i| format!("R{i}(x{i}, z)")).collect();
    let text = format!("S{legs}({}) <- {}", head.join(", "), atoms.join(", "));
    parse_cq(&text).expect("generated query is well-formed")
}

/// The general Example 39 family for `k ≥ 4`:
///
/// ```text
/// Q1(x2,…,xk) ← { R_i({x1..xk} \ {x_i}) | 1 ≤ i ≤ k−1 }
/// Q2(x2,…,xk) ← R1(x2,…,x_{k−1},x1), R2(xk,x3,…,x_{k−1},v)
/// ```
pub fn example39(k: usize) -> Ucq {
    assert!((4..=9).contains(&k), "supported k range");
    let all: Vec<String> = (1..=k).map(|i| format!("x{i}")).collect();
    let head = all[1..].join(", ");
    let q1_atoms: Vec<String> = (1..k)
        .map(|i| {
            let args: Vec<&str> = all
                .iter()
                .enumerate()
                .filter_map(|(j, v)| (j + 1 != i).then_some(v.as_str()))
                .collect();
            format!("R{i}({})", args.join(", "))
        })
        .collect();
    // R1(x2,…,x_{k−1},x1)
    let mut r1_args: Vec<&str> = all[1..k - 1].iter().map(String::as_str).collect();
    r1_args.push(&all[0]);
    // R2(xk,x3,…,x_{k−1},v)
    let mut r2_args: Vec<&str> = vec![&all[k - 1]];
    r2_args.extend(all[2..k - 1].iter().map(String::as_str));
    r2_args.push("v");
    let text = format!(
        "Q1({head}) <- {}\nQ2({head}) <- R1({}), R2({})",
        q1_atoms.join(", "),
        r1_args.join(", "),
        r2_args.join(", "),
    );
    parse_ucq(&text).expect("generated family is well-formed")
}

/// The binary relation `{(k, k mod modulus) | 0 ≤ k < rows}`: one column
/// dense, the other taking `modulus` values. Packed two-id keys of such
/// rows differ mostly in their high id, which a hash that buckets by the
/// low bits of a product turns into a few long probe chains — a dedup or
/// membership set over them then costs time superlinear in `rows`.
pub fn residue_pairs(rows: usize, modulus: i64) -> Relation {
    Relation::from_pairs((0..rows as i64).map(|k| (k, k % modulus)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_core::{classify, cq_status, CqStatus};

    #[test]
    fn path_family_tractability_axis() {
        for hops in 1..=5 {
            let full = path_cq(hops, true);
            assert_eq!(
                cq_status(&full),
                CqStatus::FreeConnex,
                "full head, {hops} hops"
            );
            let ends = path_cq(hops, false);
            if hops == 1 {
                assert_eq!(cq_status(&ends), CqStatus::FreeConnex);
            } else {
                assert_eq!(
                    cq_status(&ends),
                    CqStatus::AcyclicHard,
                    "endpoint projection of a {hops}-hop path is hard"
                );
            }
        }
    }

    #[test]
    fn star_family_shapes() {
        let all_legs = star_cq(3, &["x1", "x2", "x3", "z"]);
        assert_eq!(cq_status(&all_legs), CqStatus::FreeConnex);
        let no_center = star_cq(3, &["x1", "x2", "x3"]);
        assert_eq!(cq_status(&no_center), CqStatus::AcyclicHard);
    }

    #[test]
    fn example39_k4_matches_catalog() {
        let family = example39(4);
        let fixed = crate::catalog::by_id("example39_k4").unwrap().ucq;
        assert_eq!(family.len(), fixed.len());
        assert_eq!(family.head_arity(), fixed.head_arity());
        // Same per-member statuses.
        let fam_status: Vec<CqStatus> = family.cqs().iter().map(cq_status).collect();
        let fix_status: Vec<CqStatus> = fixed.cqs().iter().map(cq_status).collect();
        assert_eq!(fam_status, fix_status);
    }

    #[test]
    fn example39_family_is_open_for_all_k() {
        for k in 4..=6 {
            let u = example39(k);
            let c = classify(&u);
            assert!(
                !c.is_tractable(),
                "Example 39 (k={k}) must not classify tractable"
            );
        }
    }
}

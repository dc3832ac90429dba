//! The paper catalog: every example query from Carmeli & Kröll (PODS 2019),
//! with the paper's verdict about it.
//!
//! The catalog is the golden data set for the classifier tests and the
//! `classify_catalog` example.

use ucq_query::{parse_ucq, Ucq};

/// What the paper says about a catalog entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaperVerdict {
    /// In `DelayClin` (free-connex union, Theorems 4/12/35).
    Tractable,
    /// Not in `DelayClin` under the stated hypotheses.
    Intractable,
    /// Complexity open, no ad-hoc proof either.
    Open,
    /// Open for the general theorems but proven hard ad hoc in the paper
    /// (Example 31 with k = 4, Example 39 with k = 4): our classifier says
    /// `Unknown`, the executable reduction demonstrates the hardness.
    OpenButProvenHard,
}

/// A catalog entry.
#[derive(Clone, Debug)]
pub struct CatalogEntry {
    /// Stable identifier, e.g. `"example2"`.
    pub id: &'static str,
    /// Where it appears in the paper.
    pub paper_ref: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The query.
    pub ucq: Ucq,
    /// The paper's verdict.
    pub verdict: PaperVerdict,
}

fn entry(
    id: &'static str,
    paper_ref: &'static str,
    description: &'static str,
    text: &str,
    verdict: PaperVerdict,
) -> CatalogEntry {
    CatalogEntry {
        id,
        paper_ref,
        description,
        ucq: parse_ucq(text).expect("catalog queries are well-formed"),
        verdict,
    }
}

/// All catalog entries.
pub fn catalog() -> Vec<CatalogEntry> {
    vec![
        entry(
            "matmul_cq",
            "§2 (mat-mul hypothesis)",
            "The Boolean matrix multiplication query Π(x,y) <- A(x,z), B(z,y)",
            "Pi(x, y) <- A(x, z), B(z, y)",
            PaperVerdict::Intractable,
        ),
        entry(
            "full_path_cq",
            "Theorem 3(1)",
            "Free-connex two-hop path with full head",
            "Q(x, z, y) <- A(x, z), B(z, y)",
            PaperVerdict::Tractable,
        ),
        entry(
            "triangle_cq",
            "Theorem 3(3)",
            "Cyclic triangle query: even Decide is super-linear",
            "Q(x, y, z) <- R(x, y), S(y, z), T(z, x)",
            PaperVerdict::Intractable,
        ),
        entry(
            "example1",
            "Example 1",
            "Redundant union: Q1 ⊆ Q2, equivalent to the easy Q2",
            "Q1(x, y) <- R1(x, y), R2(y, z), R3(z, x)\n\
             Q2(x, y) <- R1(x, y), R2(y, z)",
            PaperVerdict::Tractable,
        ),
        entry(
            "example2",
            "Example 2 / Theorem 12",
            "Hard CQ made tractable by an easy CQ providing {x,z,y}",
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
            PaperVerdict::Tractable,
        ),
        entry(
            "example9",
            "Example 9",
            "Example 2 with an R4 filter: no body-homomorphism, hard",
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w), R4(y)",
            PaperVerdict::Intractable,
        ),
        entry(
            "example13",
            "Example 13",
            "Three intractable CQs whose union is tractable (recursive extensions)",
            "Q1(x, y, v, u) <- R1(x, z1), R2(z1, z2), R3(z2, z3), R4(z3, y), R5(y, v, u)\n\
             Q2(x, y, v, u) <- R1(x, y), R2(y, v), R3(v, z1), R4(z1, u), R5(u, t1, t2)\n\
             Q3(x, y, v, u) <- R1(x, z1), R2(z1, y), R3(y, v), R4(v, u), R5(u, t1, t2)",
            PaperVerdict::Tractable,
        ),
        entry(
            "example18",
            "Example 18 / Theorem 17",
            "Two cyclic CQs plus a hard acyclic one: triangle detection embeds",
            "Q1(x, y) <- R1(x, y), R2(y, u), R3(x, u)\n\
             Q2(x, y) <- R1(y, v), R2(v, x), R3(y, x)\n\
             Q3(x, y) <- R1(x, z), R2(y, z)",
            PaperVerdict::Intractable,
        ),
        entry(
            "example20",
            "Example 20 / Lemma 25",
            "Body-isomorphic pair, free-path not guarded: mat-mul embeds",
            "Q1(x, y, v) <- R1(x, z), R2(z, y), R3(y, v), R4(v, w)\n\
             Q2(x, y, v) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)",
            PaperVerdict::Intractable,
        ),
        entry(
            "example21",
            "Example 21 / Example 24",
            "Example 20 with wider heads: guarded both ways, tractable",
            "Q1(w, y, x, z) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)\n\
             Q2(x, y, w, v) <- R1(w, v), R2(v, y), R3(y, z), R4(z, x)",
            PaperVerdict::Tractable,
        ),
        entry(
            "example22",
            "Example 22 / Lemma 26",
            "Free-path guarded but not bypass guarded: 4-clique embeds",
            "Q1(x, y, t) <- R1(x, w, t), R2(y, w, t)\n\
             Q2(x, y, w) <- R1(x, w, t), R2(y, w, t)",
            PaperVerdict::Intractable,
        ),
        entry(
            "example30",
            "Example 30 (§5.1)",
            "Non-body-isomorphic pair with an unguarded-looking free-path: open",
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, t1), R2(t2, y), R3(w, t3)",
            PaperVerdict::Open,
        ),
        entry(
            "example31_k4",
            "Example 31, k = 4 (§5.1)",
            "Star body, all 3-of-4 heads: proven hard ad hoc via 4-clique",
            "Q1(x1, x2, x3) <- R1(x1, z), R2(x2, z), R3(x3, z)\n\
             Q2(x1, x2, z) <- R1(x1, z), R2(x2, z), R3(x3, z)\n\
             Q3(x1, x3, z) <- R1(x1, z), R2(x2, z), R3(x3, z)\n\
             Q4(x2, x3, z) <- R1(x1, z), R2(x2, z), R3(x3, z)",
            PaperVerdict::OpenButProvenHard,
        ),
        entry(
            "example36",
            "Example 36 (§5.2)",
            "Cyclic CQ resolved by a provided {t,y,z,w} atom: tractable",
            "Q1(x, y, z, w) <- R1(y, z, w, x), R2(t, y, w), R3(t, z, w), R4(t, y, z)\n\
             Q2(x, y, z, w) <- R1(x, z, w, v), R2(y, x, w)",
            PaperVerdict::Tractable,
        ),
        entry(
            "example37",
            "Example 37 (§5.2)",
            "Cycle guarded but free-path (x,z,y) unguarded: hard ad hoc \
             (mat-mul sketch in §5.2, outside the general theorems)",
            "Q1(x, y, v) <- R1(v, z, x), R2(y, v), R3(z, y)\n\
             Q2(x, y, v) <- R1(y, v, z), R2(x, y)",
            PaperVerdict::OpenButProvenHard,
        ),
        entry(
            "example38",
            "Example 38 (§5.2)",
            "Cyclic member, no free variable maps onto y: open",
            "Q1(x, z, y, v) <- R1(x, z, v), R2(z, y, v), R3(y, x, v)\n\
             Q2(x, z, y, v) <- R1(x, z, v), R2(y, t1, v), R3(t2, x, v)",
            PaperVerdict::Open,
        ),
        entry(
            "example39_k4",
            "Example 39 (§5.2)",
            "Extension removes the cycle but introduces a hyperclique: hard ad hoc",
            "Q1(x2, x3, x4) <- R1(x2, x3, x4), R2(x1, x3, x4), R3(x1, x2, x4)\n\
             Q2(x2, x3, x4) <- R1(x2, x3, x1), R2(x4, x3, v)",
            PaperVerdict::OpenButProvenHard,
        ),
        entry(
            "two_free_connex",
            "Theorem 4 / Algorithm 1",
            "A union of two free-connex CQs over different relations",
            "Q1(x, y) <- R(x, y)\n\
             Q2(a, b) <- S(a, z), T(z, b), U(a, z, b)",
            PaperVerdict::Tractable,
        ),
        entry(
            "theorem19_pair",
            "Theorem 19",
            "Two intractable, non-body-isomorphic CQs: intractable union",
            "Q1(x, y) <- R(x, z), S(z, y)\n\
             Q2(x, y) <- S(x, z), R(z, y)",
            PaperVerdict::Intractable,
        ),
        entry(
            "example2_plus",
            "Theorem 12 (three members)",
            "Example 2 with an extra free-connex member: still tractable",
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)\n\
             Q3(x, y, w) <- R4(x, y, w)",
            PaperVerdict::Tractable,
        ),
        entry(
            "cyclic_pair_thm17",
            "Theorem 17 (cyclic members)",
            "Two body-isomorphic cyclic CQs: Decide is already hard",
            "Q1(x, y) <- R1(x, y), R2(y, u), R3(x, u)\n\
             Q2(x, y) <- R1(y, v), R2(v, x), R3(y, x)",
            PaperVerdict::Intractable,
        ),
    ]
}

/// Looks an entry up by id.
pub fn by_id(id: &str) -> Option<CatalogEntry> {
    catalog().into_iter().find(|e| e.id == id)
}

/// The Example 31 family for arbitrary `k ≥ 3`: body `R_i(x_i, z)` for
/// `i < k`, one head per (k−1)-subset of `{z, x_1, …, x_{k−1}}`.
pub fn example31(k: usize) -> Ucq {
    assert!((3..=10).contains(&k), "supported k range");
    let body: Vec<String> = (1..k).map(|i| format!("R{i}(x{i}, z)")).collect();
    let body = body.join(", ");
    let mut vars: Vec<String> = (1..k).map(|i| format!("x{i}")).collect();
    vars.push("z".to_string());
    let mut rules = Vec::new();
    for (qi, skip) in (0..vars.len()).rev().enumerate() {
        let head: Vec<&str> = vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| (i != skip).then_some(v.as_str()))
            .collect();
        rules.push(format!("Q{}({}) <- {}", qi + 1, head.join(", "), body));
    }
    parse_ucq(&rules.join("\n")).expect("well-formed family")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_parses_and_ids_unique() {
        let c = catalog();
        assert!(c.len() >= 17);
        let ids: std::collections::HashSet<&str> = c.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), c.len());
    }

    #[test]
    fn by_id_finds_example2() {
        let e = by_id("example2").unwrap();
        assert_eq!(e.ucq.len(), 2);
        assert_eq!(e.verdict, PaperVerdict::Tractable);
        assert!(by_id("no_such_entry").is_none());
    }

    #[test]
    fn example31_family_shape() {
        let u = example31(4);
        assert_eq!(u.len(), 4);
        assert_eq!(u.head_arity(), 3);
        let u5 = example31(5);
        assert_eq!(u5.len(), 5);
        assert_eq!(u5.head_arity(), 4);
        assert_eq!(u5.cqs()[0].atoms().len(), 4);
    }

    #[test]
    fn example31_k4_matches_catalog_entry() {
        let family = example31(4);
        let fixed = by_id("example31_k4").unwrap().ucq;
        // Same number of members and same head arity; the first member's
        // head is {x1,x2,x3} in both.
        assert_eq!(family.len(), fixed.len());
        assert_eq!(family.head_arity(), fixed.head_arity());
    }
}

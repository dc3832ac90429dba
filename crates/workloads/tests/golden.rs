//! Golden test: the classifier reproduces the paper's verdict for every
//! catalog entry.

use ucq_core::{classify, Verdict};
use ucq_workloads::{catalog, PaperVerdict};

#[test]
fn classifier_matches_paper_on_whole_catalog() {
    for entry in catalog() {
        let c = classify(&entry.ucq);
        let ok = match entry.verdict {
            PaperVerdict::Tractable => matches!(c.verdict, Verdict::FreeConnex { .. }),
            PaperVerdict::Intractable => {
                matches!(c.verdict, Verdict::Intractable { .. })
            }
            // Open cases — including the two the paper settles ad hoc but
            // outside any general theorem — must come out Unknown: the
            // classifier only claims what the general results prove.
            PaperVerdict::Open | PaperVerdict::OpenButProvenHard => {
                matches!(c.verdict, Verdict::Unknown { .. })
            }
        };
        assert!(
            ok,
            "{} ({}): expected {:?}, classifier said {:?}",
            entry.id, entry.paper_ref, entry.verdict, c.verdict
        );
    }
}

/// The certificate each `Tractable` catalog entry classifies to: per
/// member of the minimized union, the variable sets of its chosen virtual
/// atoms, and per scheduled atom its relation name, which hashes the
/// target, the variables, the provider, the homomorphism, the connex set
/// `S` and the uses. Changing any of them is a change of certificate.
type Certificate = (
    &'static str,
    &'static [&'static [&'static [u32]]],
    &'static [&'static str],
);

const CERTIFICATES: &[Certificate] = &[
    ("full_path_cq", &[&[]], &[]),
    ("example1", &[&[]], &[]),
    (
        "example2",
        &[&[&[0, 1, 3]], &[]],
        &["@prov_0_b_642e51fbcaae25b9"],
    ),
    (
        "example13",
        &[
            &[&[0, 1, 4, 5], &[0, 1, 5, 6]],
            &[&[2, 3, 4]],
            &[&[0, 1, 4]],
        ],
        &[
            "@prov_1_1c_02d43ff53f817eb9",
            "@prov_0_33_c25ec02383138252",
            "@prov_2_13_d4ddd265d744e14e",
            "@prov_0_63_df3eea68e921b5c7",
        ],
    ),
    (
        "example21",
        &[&[&[0, 1, 4]], &[&[0, 1, 4]]],
        &["@prov_0_13_6656d9f88d5c5424", "@prov_1_13_f8f2752fb5829af7"],
    ),
    (
        "example36",
        &[&[&[1, 2, 3, 4]], &[]],
        &["@prov_0_1e_67ffe525752f1b89"],
    ),
    ("two_free_connex", &[&[], &[]], &[]),
    (
        "example2_plus",
        &[&[&[0, 1, 3]], &[], &[]],
        &["@prov_0_b_642e51fbcaae25b9"],
    ),
];

#[test]
fn tractable_entries_have_executable_plans() {
    let mut pinned = 0;
    for entry in catalog() {
        if entry.verdict != PaperVerdict::Tractable {
            continue;
        }
        let c = classify(&entry.ucq);
        let Verdict::FreeConnex { plan } = &c.verdict else {
            panic!("{} must be free-connex", entry.id);
        };
        // Every member's extension must genuinely be free-connex.
        for i in 0..c.minimized.len() {
            let ext = plan.extended_query(&c.minimized, i);
            assert!(
                ext.is_free_connex(),
                "{}: member {i} extension not free-connex",
                entry.id
            );
        }
        // And it is the certificate the search has always produced.
        let (_, chosen, names) = CERTIFICATES
            .iter()
            .find(|(id, _, _)| *id == entry.id)
            .unwrap_or_else(|| panic!("{} has no pinned certificate", entry.id));
        let got: Vec<Vec<Vec<u32>>> = plan
            .chosen
            .iter()
            .map(|m| m.iter().map(|s| s.iter().collect()).collect())
            .collect();
        assert_eq!(got, *chosen, "{}: chosen virtual atoms", entry.id);
        let got: Vec<&str> = plan.atoms.iter().map(|a| a.rel_name.as_str()).collect();
        assert_eq!(got, *names, "{}: scheduled atoms", entry.id);
        pinned += 1;
    }
    assert_eq!(
        pinned,
        CERTIFICATES.len(),
        "every pin names a tractable entry"
    );
}

#[test]
fn example31_family_is_union_guarded_but_unknown() {
    for k in 3..=6 {
        let u = ucq_workloads::example31(k);
        let c = classify(&u);
        // k = 3: Q1(x1,x2),Q2(x1,z),Q3(x2,z) over R1(x1,z),R2(x2,z).
        // Free-paths (x1,z,x2) are guarded by... {x1,z,x2} is not inside
        // any 2-variable head, so for k=3 Theorem 33 applies: intractable.
        // For k ≥ 4 every triple of a free-path fits some head: Unknown.
        if k == 3 {
            assert!(
                c.is_intractable(),
                "k=3 star union must be intractable, got {:?}",
                c.verdict
            );
        } else {
            let Verdict::Unknown { notes } = &c.verdict else {
                panic!("k={k} star union is open, got {:?}", c.verdict);
            };
            // The search missing a certificate is only meaningful with its
            // bounds: the notes name every one that can make it miss.
            let last = notes.last().expect("an Unknown verdict explains itself");
            for bound in [
                "exact ≤ 2 atoms",
                "greedy ≤ 8 steps",
                "≤ 128 homomorphisms per member pair",
                "≤ 6 fixpoint rounds",
                "candidate pool ≤ 160 per member",
            ] {
                assert!(
                    last.contains(bound),
                    "k={k}: {bound:?} missing from {last:?}"
                );
            }
        }
    }
}

//! Golden test: the classifier reproduces the paper's verdict for every
//! catalog entry, each tractable entry keeps its certificate and its
//! planner counters, and a certificate is empty exactly when the union is
//! a Theorem 4 one.

use ucq_core::{classify, fd_rewrite, Classification, CqStatus, UcqEngine, Verdict};
use ucq_enumerate::Enumerator;
use ucq_storage::{CtxView, Relation, Value};
use ucq_workloads::random::{random_fd_union, random_free_connex_union, random_union_extension};
use ucq_workloads::{catalog, random_instance, InstanceSpec, PaperVerdict};

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

/// Whether `c` has a certificate; if it has, asserts that the certificate
/// is empty exactly when every minimized member is free-connex on its own
/// (Theorem 4 is Theorem 12 with nothing to materialize), which is what
/// lets the engine read its strategy off the certificate alone.
fn certificate_is_empty_iff_members_are_free_connex(c: &Classification, case: &str) -> bool {
    let Verdict::FreeConnex { plan } = &c.verdict else {
        return false;
    };
    let all_fc = c.statuses.iter().all(|s| *s == CqStatus::FreeConnex);
    assert_eq!(!plan.needs_extension(), all_fc, "{case}");
    true
}

#[test]
fn a_certificate_is_empty_exactly_when_every_member_is_free_connex() {
    let mut certified = 0;
    for entry in catalog() {
        let c = classify(&entry.ucq);
        certified += usize::from(certificate_is_empty_iff_members_are_free_connex(
            &c, entry.id,
        ));
    }
    assert_eq!(certified, CERTIFICATES.len(), "every tractable entry");
    for seed in 0..120u64 {
        let (members, head_arity) = (2 + (seed % 3) as usize, (seed / 3 % 4) as usize);
        let u = random_free_connex_union(seed, members, head_arity);
        let case = format!("free-connex union, seed {seed}: {u:?}");
        assert!(certificate_is_empty_iff_members_are_free_connex(
            &classify(&u),
            &case
        ));
    }
    for seed in 0..40u64 {
        let u = random_union_extension(seed);
        let case = format!("union extension, seed {seed}: {u:?}");
        assert!(certificate_is_empty_iff_members_are_free_connex(
            &classify(&u),
            &case
        ));
    }
    for seed in 0..40u64 {
        let (u, fds) = random_fd_union(seed);
        let engine = fd_rewrite(&u, &fds).unwrap().engine();
        let case = format!("FD rewrite, seed {seed}: {u:?} under {:?}", fds.fds());
        let c = engine.classification();
        assert!(certificate_is_empty_iff_members_are_free_connex(c, &case));
    }
}

/// Per tractable catalog entry, the planner counters `(plans_searched,
/// candidates_costed, plan_cache_hits)` of: the first session over a fresh
/// context, a second session over the same context, and the epoch a
/// refreeze of the second one builds. A Theorem 4 union prices nothing; a
/// Theorem 12 union prices once and then hits the plan cache.
type PlannerPin = (&'static str, [(usize, usize, usize); 3]);

const PLANNER_PINS: &[PlannerPin] = &[
    ("full_path_cq", [(0, 0, 0); 3]),
    ("example1", [(0, 0, 0); 3]),
    ("example2", [(1, 4, 0), (0, 0, 1), (0, 0, 1)]),
    ("example13", [(1, 11, 0), (0, 0, 1), (0, 0, 1)]),
    ("example21", [(1, 8, 0), (0, 0, 1), (0, 0, 1)]),
    ("example36", [(1, 2, 0), (0, 0, 1), (0, 0, 1)]),
    ("two_free_connex", [(0, 0, 0); 3]),
    ("example2_plus", [(1, 5, 0), (0, 0, 1), (0, 0, 1)]),
];

#[test]
fn planner_counters_are_pinned_per_tractable_entry() {
    let triple =
        |p: ucq_core::PlannerStats| (p.plans_searched, p.candidates_costed, p.plan_cache_hits);
    let mut pinned = 0;
    for entry in catalog() {
        if entry.verdict != PaperVerdict::Tractable {
            continue;
        }
        let engine = UcqEngine::new(entry.ucq.clone());
        let inst = random_instance(&entry.ucq, &InstanceSpec::scaled(40, 7));
        let ctx = CtxView::new();
        let first = engine.session_in(&ctx, &inst);
        first.enumerate().unwrap().collect_all();
        let second = engine.session_in(&ctx, &inst);
        second.enumerate().unwrap().collect_all();
        let frozen = second.freeze().unwrap();

        // One row into what the first minimized member reads first.
        let rel = &engine.classification().minimized.cqs()[0].atoms()[0].rel;
        let stored = inst.get_shared(rel).expect("generated");
        let mut row = Relation::new(stored.arity());
        row.push_row(&vec![Value::Int(1000); stored.arity()]);
        let grown = ctx.insert_rows(&stored, &row);
        let next = frozen
            .refreeze(&inst.with_relation_shared(rel, grown))
            .unwrap();
        next.enumerate().unwrap().collect_all();

        let got = [
            first.planner_stats(),
            frozen.planner_stats(),
            next.planner_stats(),
        ]
        .map(triple);
        let (_, want) = PLANNER_PINS
            .iter()
            .find(|(id, _)| *id == entry.id)
            .unwrap_or_else(|| panic!("{} has no pinned planner counters", entry.id));
        assert_eq!(got, *want, "{}: first, second, refrozen", entry.id);
        pinned += 1;
    }
    assert_eq!(
        pinned,
        PLANNER_PINS.len(),
        "every pin names a tractable entry"
    );
}

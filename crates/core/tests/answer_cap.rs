//! The request's answer cap reaches the block decoder, as exact counts: a
//! `Budgeted` page of `n` answers over either `DelayClin` arm pulls and
//! decodes at most `n + 1` rows (the one beyond is what proves
//! `Truncation::MaxAnswers`), not a block beyond. So does a page over an FD
//! rewrite: it is an ordinary engine stream, and its projection happens
//! below the decoder, so there is no wrapper that could drop the hint.

use ucq_core::{fd_rewrite, Algorithm1, Fd, FdSet, Strategy, UcqEngine};
use ucq_enumerate::{Budgeted, Enumerator, QueryBudget, Truncation, DEFAULT_BLOCK_ROWS};
use ucq_query::{parse_ucq, Ucq};
use ucq_storage::{CtxView, Instance, Relation};

/// Checks one arm: `start` begins an enumeration of its `total` answers,
/// `counts` reads the `(rows pulled, rows decoded)` of its value facade.
fn check_arm<S: Enumerator>(
    start: impl Fn() -> S,
    counts: impl Fn(&S) -> (usize, usize),
    total: usize,
) {
    assert!(total > 2 * DEFAULT_BLOCK_ROWS, "pages must cross blocks");
    // A page drained a block per call (as the serving runtime fills its
    // reply) must pull exactly what an answer-at-a-time drain pulls.
    let page = |n: usize| {
        let drain = |blockwise: bool| {
            let budget = QueryBudget::unlimited().with_max_answers(n);
            let mut budgeted = Budgeted::new(start(), budget);
            let answers = if blockwise {
                budgeted.collect_all().len()
            } else {
                std::iter::from_fn(|| budgeted.next()).count()
            };
            let truncated_by = budgeted.truncated_by();
            (answers, truncated_by, counts(&budgeted.into_inner()))
        };
        let blockwise = drain(true);
        assert_eq!(blockwise, drain(false), "page of {n}: next_into vs next");
        blockwise
    };
    let b = DEFAULT_BLOCK_ROWS;
    for n in [0, 1, 2, b - 1, b, b + 1, 2 * b, total - 1] {
        // The answers and the one beyond, which proves the truncation.
        let want = (n, Some(Truncation::MaxAnswers), (n + 1, n + 1));
        assert_eq!(page(n), want, "page of {n}");
    }
    // Row n + 1 does not exist: no truncation, and still no block beyond.
    for n in [total, total + 5] {
        assert_eq!(page(n), (total, None, (total, total)), "page of {n}");
    }
    // The hint is not a limit: a caller that was promised three rows and
    // keeps pulling still gets every answer.
    let mut stream = start();
    stream.expect_at_most(3);
    assert_eq!(stream.collect_all().len(), total);
}

fn pairs(rows: impl Iterator<Item = (i64, i64)>) -> Relation {
    Relation::from_pairs(rows)
}

fn union(text: &str) -> Ucq {
    parse_ucq(text).unwrap()
}

#[test]
fn a_page_over_algorithm1_pulls_and_decodes_its_answers_and_one_more() {
    let u = union("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)");
    // 900 rows in both members, 600 in each alone: line 5 runs too.
    let i: Instance = [
        ("R", pairs((0..1500).map(|k| (k, k + 1)))),
        ("S", pairs((600..2100).map(|k| (k, k + 1)))),
    ]
    .into_iter()
    .collect();
    let engines = Algorithm1::member_engines(&u, &i, &CtxView::new()).unwrap();
    check_arm(
        || Algorithm1::from_engines(engines.clone()),
        |a| (a.rows_pulled(), a.rows_decoded()),
        2100,
    );
}

#[test]
fn a_page_over_the_pipeline_pulls_and_decodes_its_answers_and_one_more() {
    let u = union(
        "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
         Q2(x, y, w) <- R1(x, y), R2(y, w)",
    );
    let i: Instance = [
        ("R1", pairs((0..1200).map(|k| (k, k % 40)))),
        ("R2", pairs((0..40).map(|k| (k, (k + 1) % 40)))),
        ("R3", pairs((0..40).map(|k| (k, k + 100)))),
    ]
    .into_iter()
    .collect();
    let engine = UcqEngine::new(u);
    assert_eq!(engine.strategy(), Strategy::UnionExtension);
    let session = engine.session(&i);
    let total = session.enumerate().unwrap().collect_all().len();
    check_arm(
        || session.enumerate().unwrap(),
        |p| (p.rows_pulled(), p.rows_decoded()),
        total,
    );
}

#[test]
fn a_page_over_an_fd_rewrite_pulls_and_decodes_its_answers_and_one_more() {
    let key = |rel: &str| Fd::new(rel, vec![0], 1);
    // One member, then two members whose heads grew apart, interleaved by
    // Algorithm 1 through their lifts: 1500 answers from both.
    let cases = [
        ("Pi(x, y) <- A(x, z), B(z, y)", vec![key("A")], 1500),
        (
            "Q1(x) <- A(x, z)\nQ2(x) <- B(x, w)",
            vec![key("A"), key("B")],
            2100,
        ),
    ];
    for (text, fds, total) in cases {
        let rewrite = fd_rewrite(&union(text), &FdSet::new(fds)).unwrap();
        let i: Instance = [
            ("A", pairs((0..1500).map(|k| (k, k % 50)))),
            ("B", pairs((0..2100).map(|k| (k, k % 50)))),
        ]
        .into_iter()
        .collect();
        let engine = rewrite.engine();
        assert_ne!(engine.strategy(), Strategy::Naive);
        let session = engine.session(&rewrite.instance(&i).unwrap());
        check_arm(
            || session.enumerate().unwrap(),
            |a| (a.rows_pulled(), a.rows_decoded()),
            total,
        );
    }
}

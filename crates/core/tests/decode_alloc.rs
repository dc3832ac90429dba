//! A block-wise drain allocates per block, not per answer: a frozen
//! `UcqAnswers` drained through `Budgeted::next_into` into a reserved
//! vector decodes each block straight into it, and answers of arity ≤ 4
//! live inline in the vector rather than in a heap box each. Wider answers
//! spill to the heap and must still be the same answer set.
//!
//! The allocator below counts the calling thread's allocations only, so
//! other tests of this binary running beside it do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use ucq_core::{evaluate_ucq_naive_set, UcqEngine};
use ucq_enumerate::{Budgeted, Enumerator, QueryBudget, DEFAULT_BLOCK_ROWS};
use ucq_query::parse_ucq;
use ucq_storage::{Instance, Relation, Tuple, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn rows(arity: usize, n: i64, salt: i64) -> Relation {
    let mut rel = Relation::new(arity);
    for k in 0..n {
        let row: Vec<Value> = (0..arity as i64)
            .map(|c| Value::Int((k * (c + 1) + salt) % (n + c)))
            .collect();
        rel.push_row(&row);
    }
    rel
}

/// Drains a frozen session's stream a block per call into a vector sized
/// for it, returning the answers, the blocks and the allocations made.
fn drain_frozen(text: &str, instance: &Instance) -> (Vec<Tuple>, usize, usize) {
    let engine = UcqEngine::new(parse_ucq(text).unwrap());
    let frozen = engine.session(instance).freeze().unwrap();
    let total = frozen.enumerate().unwrap().collect_all().len();
    let mut budgeted = Budgeted::new(frozen.enumerate().unwrap(), QueryBudget::unlimited());
    let mut out = Vec::with_capacity(total);
    let (mut blocks, before) = (0, allocations());
    while budgeted.next_into(&mut out, DEFAULT_BLOCK_ROWS) > 0 {
        blocks += 1;
    }
    let made = allocations() - before;
    assert_eq!(out.len(), total);
    (out, blocks, made)
}

#[test]
fn a_block_wise_drain_allocates_per_block_not_per_answer() {
    let text = "Q1(x, y, z) <- R(x, y), S(y, z)\nQ2(x, y, z) <- R(x, y), T(y, z)";
    let instance: Instance = [
        ("R", rows(2, 1800, 0)),
        ("S", rows(2, 900, 3)),
        ("T", rows(2, 900, 5)),
    ]
    .into_iter()
    .collect();
    let (answers, blocks, made) = drain_frozen(text, &instance);
    assert!(
        blocks >= 4,
        "only {blocks} blocks: the drain must cross blocks"
    );
    assert!(
        made <= 2 * blocks,
        "{made} allocations over {blocks} blocks ({} answers)",
        answers.len()
    );
    let got: HashSet<Tuple> = answers.into_iter().collect();
    let want = evaluate_ucq_naive_set(&parse_ucq(text).unwrap(), &instance).unwrap();
    assert_eq!(got, want);
}

#[test]
fn wide_answers_spill_and_still_match_the_naive_set() {
    let text = "Q1(a, b, c, d, e) <- R(a, b, c), S(c, d, e)\n\
                Q2(a, b, c, d, e) <- R(a, b, c), T(c, d, e)";
    let instance: Instance = [
        ("R", rows(3, 700, 1)),
        ("S", rows(3, 400, 2)),
        ("T", rows(3, 400, 7)),
    ]
    .into_iter()
    .collect();
    let (answers, blocks, _) = drain_frozen(text, &instance);
    assert!(blocks >= 2, "the spill case crosses blocks too");
    assert!(answers.iter().all(|t| t.arity() == 5));
    let got: HashSet<Tuple> = answers.iter().cloned().collect();
    assert_eq!(got.len(), answers.len(), "no answer twice");
    let want = evaluate_ucq_naive_set(&parse_ucq(text).unwrap(), &instance).unwrap();
    assert_eq!(got, want);
}

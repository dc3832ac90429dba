//! The Cheater's Lemma compiler (Lemma 5), on the id spine.
//!
//! Lemma 5 turns an algorithm whose delay is usually `d` but occasionally
//! linear, and which may emit each result up to `m` times, into a proper
//! `DelayClin` enumerator: simulate the inner algorithm, deduplicate with a
//! lookup table, park fresh results in a queue, and release one result per
//! `m·d` simulated steps. Because at least one fresh result arrives per `m`
//! inner outputs, the queue never underflows before exhaustion.
//!
//! [`Cheater`] realizes this on real hardware over an [`IdEnumerator`]:
//! the inner algorithm's answers arrive as whole [`IdBlock`]s of interned
//! id rows, dedup runs in an [`IdSet`] over packed `u128` row keys
//! (inline keys beyond 4 columns — no per-answer heap allocation, no
//! value decode either way), and fresh answers are parked *as id rows* in
//! one flat queue buffer. The Cheater never decodes on the id paths
//! ([`IdEnumerator::next_block`], which the pipeline's block decoder
//! pulls, and the [`Cheater::next_ids`] escape hatch); its own value-level
//! [`Enumerator::next`], for callers that drive a bare Cheater, decodes
//! each emission once.
//!
//! **Lemma 5 accounting.** The pump budget is still counted in inner
//! *results*, not blocks: each [`next`](Enumerator::next) call processes up
//! to `pump_budget` (the lemma's `m`) buffered inner answers, then releases
//! one. Blocks only amortize the virtual-call and buffer overhead of
//! *producing* those answers: refills ramp from `pump_budget` rows
//! (the first `next` does no more eager work than the lemma's simulation
//! step, so `Decide`-style early-exit callers stay cheap) doubling up to
//! [`DEFAULT_BLOCK_ROWS`], so the work done inside any single `next`
//! call stays bounded by a constant independent of the instance. When the
//! queue is empty the compiler keeps pumping until a fresh answer appears
//! or the inner algorithm is exhausted, matching the lemma: the number of
//! such extended waits is bounded by the (constant) number of linear-delay
//! moments of the inner algorithm.

use crate::enumerator::Enumerator;
use crate::idenum::{IdEnumerator, DEFAULT_BLOCK_ROWS};
use ucq_storage::{CtxView, IdBlock, IdSet, Tuple, ValueId};

/// Runtime counters of a [`Cheater`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheaterStats {
    /// Results pulled from the inner enumerator.
    pub inner_results: usize,
    /// Results suppressed as duplicates.
    pub duplicates: usize,
    /// Results released downstream.
    pub emitted: usize,
    /// Maximum number of parked results observed (queue high-water mark).
    pub queue_high_water: usize,
    /// Results decoded by the Cheater's *own* value facade
    /// ([`Enumerator::next`] on the Cheater itself). Emissions taken as ids
    /// ([`Cheater::next_ids`], `next_block`) never count here: whoever
    /// pulls them decodes them — the Theorem 12 pipeline does so in its
    /// [`IdDecoder`](crate::IdDecoder), which keeps its own
    /// `rows_pulled`/`rows_decoded`.
    pub decoded: usize,
    /// Blocks pulled from the inner enumerator.
    pub blocks_pumped: usize,
}

/// Rejected [`Cheater`] configuration: Lemma 5's duplication bound `m`
/// (the pump budget) must be at least 1.
///
/// The serving runtime constructs enumerators on worker threads, where a
/// constructor panic would burn a `catch_unwind` on a statically-known
/// configuration mistake — [`Cheater::try_new`] surfaces it as a value
/// instead; the panicking [`Cheater::with_capacity_hint`] delegates to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PumpBudgetError;

impl std::fmt::Display for PumpBudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("pump budget must be positive (Lemma 5's duplication bound m >= 1)")
    }
}

impl std::error::Error for PumpBudgetError {}

/// Deduplicating, pacing wrapper around an id enumerator (Lemma 5).
pub struct Cheater<E: IdEnumerator> {
    inner: E,
    inner_done: bool,
    ctx: CtxView,
    arity: usize,
    /// Dedup table over id rows — packed `u128` keys up to 4 columns,
    /// inline-key spill beyond (see [`IdSet`]).
    seen: IdSet,
    /// The block currently being consumed (`cursor` rows already
    /// processed); refilled from `inner` when drained.
    block: IdBlock,
    cursor: usize,
    /// Rows requested by the next refill: starts at `pump_budget` (so
    /// early-exit consumers — `decide`, first-answer probes — never pay
    /// for a full block of eager production) and doubles per refill up to
    /// the block capacity, converging to full-block amortization on long
    /// drains.
    fill_target: usize,
    /// Parked fresh answers as flat id rows, consumed front to back;
    /// compacted amortized-O(1) so memory tracks the high-water mark, not
    /// the total emitted.
    queue: Vec<ValueId>,
    q_head: usize,
    q_rows: usize,
    pump_budget: usize,
    stats: CheaterStats,
}

impl<E: IdEnumerator> Cheater<E> {
    /// Wraps `inner`, pumping up to `pump_budget ≥ 1` inner results per
    /// emitted answer (the duplication bound `m` of Lemma 5). Emitted
    /// answers decode through `ctx`'s dictionary. A zero budget is a typed
    /// error.
    pub fn try_new(
        inner: E,
        pump_budget: usize,
        ctx: CtxView,
    ) -> Result<Cheater<E>, PumpBudgetError> {
        if pump_budget == 0 {
            return Err(PumpBudgetError);
        }
        let arity = inner.arity();
        Ok(Cheater {
            inner,
            inner_done: false,
            ctx,
            arity,
            seen: IdSet::new(),
            block: IdBlock::new(arity, DEFAULT_BLOCK_ROWS.max(pump_budget)),
            cursor: 0,
            fill_target: pump_budget,
            queue: Vec::new(),
            q_head: 0,
            q_rows: 0,
            pump_budget,
            stats: CheaterStats::default(),
        })
    }

    /// As [`Cheater::try_new`] with a distinct-answer cardinality hint: the
    /// dedup table preallocates for `expected_answers` keys, skipping the
    /// growth rehashes an unhinted drain pays on large outputs. A lower
    /// bound is safe (the table still grows); callers with any output
    /// estimate — a session's previous run — should pass it. Panics on a
    /// zero budget.
    pub fn with_capacity_hint(
        inner: E,
        pump_budget: usize,
        ctx: CtxView,
        expected_answers: usize,
    ) -> Cheater<E> {
        match Cheater::try_new(inner, pump_budget, ctx) {
            Ok(mut cheater) => {
                cheater.seen = IdSet::with_capacity(expected_answers);
                cheater
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> CheaterStats {
        self.stats
    }

    /// Rows currently parked.
    #[inline]
    fn queued(&self) -> usize {
        self.q_rows - self.q_head
    }

    /// Reclaims the consumed queue prefix once it dominates: clearing on
    /// full drain, shifting when more than half is consumed. Amortized O(1)
    /// per row; keeps queue memory at the high-water mark.
    fn maybe_compact(&mut self) {
        if self.q_head == 0 {
            return;
        }
        if self.q_head == self.q_rows {
            self.queue.clear();
            self.q_head = 0;
            self.q_rows = 0;
        } else if self.q_head >= self.q_rows - self.q_head {
            self.queue.copy_within(self.q_head * self.arity.., 0);
            self.q_rows -= self.q_head;
            self.q_head = 0;
            self.queue.truncate(self.q_rows * self.arity);
        }
    }

    /// Processes one buffered inner result (refilling the block when
    /// drained — the only place inner blocks are pumped); returns `false`
    /// when the inner enumerator is exhausted.
    fn pump_one(&mut self) -> bool {
        if self.cursor == self.block.len() {
            if self.inner_done {
                return false;
            }
            let cap = DEFAULT_BLOCK_ROWS.max(self.pump_budget);
            self.block.clear();
            self.block.set_max_rows(self.fill_target.min(cap));
            self.fill_target = (self.fill_target * 2).min(cap);
            self.cursor = 0;
            if self.inner.next_block(&mut self.block) == 0 {
                self.inner_done = true;
                return false;
            }
            self.stats.blocks_pumped += 1;
        }
        let row = self.block.row(self.cursor);
        self.cursor += 1;
        self.stats.inner_results += 1;
        if self.seen.insert(row) {
            self.queue.extend_from_slice(row);
            self.q_rows += 1;
            self.stats.queue_high_water = self.stats.queue_high_water.max(self.queued());
        } else {
            self.stats.duplicates += 1;
        }
        true
    }

    /// The Lemma 5 step: budgeted pump, then pop the oldest parked answer.
    /// Returns the popped row's position in the queue buffer.
    fn next_range(&mut self) -> Option<(usize, usize)> {
        self.maybe_compact();
        // Budgeted pump: the lemma's "m·d(x) computation steps".
        let mut pumped = 0;
        while pumped < self.pump_budget {
            if !self.pump_one() {
                break;
            }
            pumped += 1;
        }
        // If nothing is parked, keep simulating until a fresh result
        // appears — this happens at most once per linear-delay moment of
        // the inner algorithm.
        while self.queued() == 0 {
            if !self.pump_one() {
                break;
            }
        }
        if self.queued() == 0 {
            return None;
        }
        let start = self.q_head * self.arity;
        self.q_head += 1;
        self.stats.emitted += 1;
        Some((start, start + self.arity))
    }

    /// Releases the next answer as a borrowed id row — the escape hatch for
    /// id-aware callers; the decode to values is skipped entirely. The row
    /// stays valid until the next call on this compiler.
    pub fn next_ids(&mut self) -> Option<&[ValueId]> {
        let (start, end) = self.next_range()?;
        Some(&self.queue[start..end])
    }
}

impl<E: IdEnumerator> Enumerator for Cheater<E> {
    fn next(&mut self) -> Option<Tuple> {
        let (start, end) = self.next_range()?;
        self.stats.decoded += 1;
        Some(
            self.ctx
                .decode_tuple(self.queue[start..end].iter().copied()),
        )
    }
}

/// A paced, deduplicated stream is itself an id enumerator, so Cheater
/// stages compose with the rest of the spine (block-level delay
/// measurement, id-level drains, chained unions).
impl<E: IdEnumerator> IdEnumerator for Cheater<E> {
    fn arity(&self) -> usize {
        self.arity
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        let mut n = 0;
        while !block.is_full() {
            match self.next_range() {
                Some((start, end)) => {
                    // Split borrows: the queue slice feeds the caller block.
                    block.push_row(&self.queue[start..end]);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idenum::IdVecEnumerator;
    use ucq_storage::Value;

    impl<E: IdEnumerator> Cheater<E> {
        /// The unhinted constructor, panicking on a zero budget.
        fn new(inner: E, pump_budget: usize, ctx: CtxView) -> Cheater<E> {
            Cheater::with_capacity_hint(inner, pump_budget, ctx, 0)
        }
    }

    /// Interns value rows and wraps them in an id replay enumerator.
    fn id_stream(ctx: &CtxView, rows: &[[i64; 1]]) -> IdVecEnumerator {
        let ids: Vec<ValueId> = rows
            .iter()
            .flat_map(|r| r.iter().map(|&x| ctx.intern(Value::Int(x))))
            .collect();
        IdVecEnumerator::from_flat(1, ids)
    }

    fn t(x: i64) -> Tuple {
        Tuple::from(&[x][..])
    }

    #[test]
    fn deduplicates_preserving_first_occurrence_order() {
        let ctx = CtxView::new();
        let inner = id_stream(&ctx, &[[1], [2], [1], [3], [2]]);
        let mut c = Cheater::new(inner, 2, ctx);
        assert_eq!(c.collect_all(), vec![t(1), t(2), t(3)]);
        let s = c.stats();
        assert_eq!(s.inner_results, 5);
        assert_eq!(s.duplicates, 2);
        assert_eq!(s.emitted, 3);
        assert_eq!(s.decoded, s.emitted, "decode only at emission");
        assert!(s.blocks_pumped >= 1);
    }

    #[test]
    fn all_duplicates_yield_single_answer() {
        let ctx = CtxView::new();
        let inner = id_stream(&ctx, &[[7]; 100]);
        let mut c = Cheater::new(inner, 3, ctx);
        assert_eq!(c.collect_all(), vec![t(7)]);
        let s = c.stats();
        assert_eq!(s.duplicates, 99);
        assert_eq!(s.decoded, 1, "99 duplicates never decode");
    }

    #[test]
    fn empty_inner_is_empty() {
        let ctx = CtxView::new();
        let mut c = Cheater::new(IdVecEnumerator::new(1, Vec::new(), 0), 2, ctx);
        assert_eq!(c.next(), None);
        assert_eq!(c.next(), None);
        assert_eq!(c.stats().blocks_pumped, 0);
    }

    #[test]
    fn queue_banks_results_with_large_budget() {
        // Budget larger than the stream: everything is pumped on the first
        // call, then drained from the queue.
        let ctx = CtxView::new();
        let rows: Vec<[i64; 1]> = (0..10).map(|i| [i]).collect();
        let mut c = Cheater::new(id_stream(&ctx, &rows), 100, ctx);
        let got = c.collect_all();
        assert_eq!(got.len(), 10);
        assert!(c.stats().queue_high_water >= 9);
    }

    #[test]
    fn release_pacing_counts_inner_results_not_blocks() {
        // Lemma 5 pacing on an all-unique stream with budget m = 3: each
        // `next` processes exactly m inner results (never a whole block),
        // so after k emissions exactly 3k results have been consumed.
        let ctx = CtxView::new();
        let rows: Vec<[i64; 1]> = (0..30).map(|i| [i]).collect();
        let mut c = Cheater::new(id_stream(&ctx, &rows), 3, ctx);
        for k in 1..=5usize {
            assert!(c.next().is_some());
            assert_eq!(c.stats().inner_results, 3 * k, "budget is per result");
            assert_eq!(c.stats().emitted, k);
        }
    }

    #[test]
    fn first_next_does_no_eager_block_work() {
        // Early-exit consumers (Decide) must not pay for a full block: the
        // refill ramp starts at the pump budget.
        let ctx = CtxView::new();
        let rows: Vec<[i64; 1]> = (0..2000).map(|i| [i]).collect();
        let mut c = Cheater::new(id_stream(&ctx, &rows), 2, ctx);
        assert!(c.next().is_some());
        let s = c.stats();
        assert_eq!(s.inner_results, 2, "first call pumps exactly the budget");
        assert_eq!(s.blocks_pumped, 1);
    }

    #[test]
    fn no_duplicates_over_id_enumerator() {
        let ctx = CtxView::new();
        let rows: Vec<[i64; 1]> = (0..200).map(|i| [i % 17]).collect();
        let mut c = Cheater::new(id_stream(&ctx, &rows), 2, ctx);
        let got = c.collect_all();
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(got.len(), sorted.len(), "no duplicates emitted");
        assert_eq!(got.len(), 17);
    }

    #[test]
    fn output_set_equals_input_set() {
        let ctx = CtxView::new();
        let inner = id_stream(&ctx, &[[3], [3], [1], [2], [1]]);
        let mut c = Cheater::new(inner, 1, ctx);
        let mut got = c.collect_all();
        got.sort();
        assert_eq!(got, vec![t(1), t(2), t(3)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let ctx = CtxView::new();
        let _ = Cheater::new(IdVecEnumerator::new(1, Vec::new(), 0), 0, ctx);
    }

    #[test]
    fn next_ids_skips_decode() {
        let ctx = CtxView::new();
        let want: Vec<ValueId> = [5i64, 6, 5]
            .iter()
            .map(|&x| ctx.intern(Value::Int(x)))
            .collect();
        let inner = IdVecEnumerator::from_flat(1, want.clone());
        let mut c = Cheater::new(inner, 2, ctx.clone());
        let mut got: Vec<ValueId> = Vec::new();
        while let Some(row) = c.next_ids() {
            got.extend_from_slice(row);
        }
        assert_eq!(got, vec![want[0], want[1]]);
        let s = c.stats();
        assert_eq!(s.emitted, 2);
        assert_eq!(s.decoded, 0, "id emissions never decode");
    }

    #[test]
    fn cheater_as_id_enumerator_composes() {
        let ctx = CtxView::new();
        let inner = id_stream(&ctx, &[[1], [2], [1], [3]]);
        let mut c = Cheater::new(inner, 2, ctx.clone());
        let (ids, rows) = c.collect_ids();
        assert_eq!(rows, 3);
        assert_eq!(ids.len(), 3);
        assert_eq!(c.stats().decoded, 0);
    }

    #[test]
    fn capacity_hint_changes_nothing_observable() {
        let ctx = CtxView::new();
        let rows: Vec<[i64; 1]> = (0..100).map(|i| [i % 7]).collect();
        let plain = Cheater::new(id_stream(&ctx, &rows), 2, ctx.clone()).collect_all();
        let mut hinted = Cheater::with_capacity_hint(id_stream(&ctx, &rows), 2, ctx.clone(), 7);
        assert_eq!(hinted.collect_all(), plain);
        // Undershooting the hint is safe too.
        let mut low = Cheater::with_capacity_hint(id_stream(&ctx, &rows), 2, ctx.clone(), 1);
        assert_eq!(low.collect_all(), plain);
        // The whole-drain ledger under an exact hint: 1000 distinct rows of
        // width 2, each `dup` times in a row, budget `dup`.
        let unique = 1000usize;
        for dup in [1usize, 2, 4] {
            let ids: Vec<ValueId> = (0..unique as i64)
                .flat_map(|i| {
                    let row = [i, 7 * i].map(|x| ctx.intern(Value::Int(x)));
                    std::iter::repeat_n(row, dup)
                })
                .flatten()
                .collect();
            let inner = IdVecEnumerator::from_flat(2, ids);
            let mut c = Cheater::with_capacity_hint(inner, dup, ctx.clone(), unique);
            assert_eq!(c.collect_all().len(), unique);
            let s = c.stats();
            assert_eq!(s.inner_results, unique * dup);
            assert_eq!((s.emitted, s.decoded), (unique, unique), "one decode each");
        }
    }

    #[test]
    fn wide_rows_spill_to_inline_keys() {
        // Arity 5 exceeds the packed-u128 dedup; the spilled path must
        // dedup identically.
        let ctx = CtxView::new();
        let mut ids: Vec<ValueId> = Vec::new();
        for r in [[1i64, 2, 3, 4, 5], [6, 7, 8, 9, 10], [1, 2, 3, 4, 5]] {
            ids.extend(r.iter().map(|&x| ctx.intern(Value::Int(x))));
        }
        let mut c = Cheater::new(IdVecEnumerator::from_flat(5, ids), 2, ctx);
        let got = c.collect_all();
        assert_eq!(got.len(), 2);
        assert_eq!(c.stats().duplicates, 1);
    }

    #[test]
    fn nullary_stream_dedups_to_one() {
        let ctx = CtxView::new();
        let inner = IdVecEnumerator::new(0, Vec::new(), 5);
        let mut c = Cheater::new(inner, 2, ctx);
        assert_eq!(c.collect_all(), vec![Tuple::empty()]);
        assert_eq!(c.stats().duplicates, 4);
    }

    #[test]
    fn queue_memory_compacts_under_steady_state() {
        // Budget 1 on an all-unique stream: one in, one out. The flat queue
        // must compact instead of retaining every emitted row.
        let ctx = CtxView::new();
        let rows: Vec<[i64; 1]> = (0..10_000).map(|i| [i]).collect();
        let mut c = Cheater::new(id_stream(&ctx, &rows), 1, ctx);
        let mut n = 0;
        while c.next_ids().is_some() {
            n += 1;
            assert!(c.queue.len() <= 8, "queue buffer stays near high-water");
        }
        assert_eq!(n, 10_000);
    }
}

//! The id-level enumeration spine: block-at-a-time producers of interned
//! answer rows.
//!
//! Stages exchange whole [`IdBlock`]s of flat [`ValueId`] rows, so an
//! answer that a downstream stage discards (Algorithm 1's membership
//! probe, a counting bench) never costs a heap allocation or a dictionary
//! sweep. Values are decoded exactly once, at the API
//! boundary, a block at a time, by [`IdDecoder`] — the one value facade
//! of every strategy arm.
//!
//! The contract of [`IdEnumerator::next_block`]: append rows to the block
//! until it [`is_full`](IdBlock::is_full) or the producer is exhausted,
//! and return the number of rows appended. A return of `0` on a non-full
//! block means exhausted (and must stay `0` on every later call). Blocks
//! are caller-owned and reused, so a drain performs O(answers / block)
//! virtual calls and zero per-answer allocations.

use crate::enumerator::Enumerator;
use ucq_storage::{CtxView, IdBlock, Tuple, ValueId};

/// Default rows per block for drains that pick their own block size.
pub const DEFAULT_BLOCK_ROWS: usize = 512;

/// A pull-based, block-at-a-time producer of interned answer rows.
pub trait IdEnumerator {
    /// Ids per answer row (the block stride).
    fn arity(&self) -> usize;

    /// Appends rows to `block` until it is full or this producer is
    /// exhausted; returns the number of rows appended (`0` = exhausted).
    /// `block.arity()` must equal [`IdEnumerator::arity`].
    fn next_block(&mut self, block: &mut IdBlock) -> usize;

    /// Drains everything, returning `(flat ids, row count)` (test/bench
    /// helper).
    fn collect_ids(&mut self) -> (Vec<ValueId>, usize)
    where
        Self: Sized,
    {
        let mut block = IdBlock::new(self.arity(), DEFAULT_BLOCK_ROWS);
        let mut ids = Vec::new();
        let mut rows = 0;
        loop {
            block.clear();
            let n = self.next_block(&mut block);
            if n == 0 {
                return (ids, rows);
            }
            ids.extend_from_slice(block.ids());
            rows += n;
        }
    }
}

impl IdEnumerator for Box<dyn IdEnumerator> {
    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        (**self).next_block(block)
    }
}

impl IdEnumerator for Box<dyn IdEnumerator + Send> {
    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        (**self).next_block(block)
    }
}

/// Replays a pre-materialized flat id table; used for materialized
/// (naive) answer sets. The table is any
/// buffer of ids: an owned `Vec`, or an `Arc<[ValueId]>` that every
/// replay of one prepared table shares without copying.
#[derive(Clone, Debug)]
pub struct IdVecEnumerator<B = Vec<ValueId>> {
    arity: usize,
    ids: B,
    n_rows: usize,
    pos: usize,
}

impl<B: AsRef<[ValueId]>> IdVecEnumerator<B> {
    /// Wraps a flat run of `n_rows` rows, `arity` ids each. For arity 0 the
    /// run is empty and `n_rows` alone carries the content.
    pub fn new(arity: usize, ids: B, n_rows: usize) -> IdVecEnumerator<B> {
        assert_eq!(
            ids.as_ref().len(),
            arity * n_rows,
            "partial row in flat table"
        );
        IdVecEnumerator {
            arity,
            ids,
            n_rows,
            pos: 0,
        }
    }

    /// Wraps a flat run of positive-arity rows, inferring the row count.
    pub fn from_flat(arity: usize, ids: B) -> IdVecEnumerator<B> {
        assert!(arity > 0, "use `new` for arity-0 tables");
        let n_rows = ids.as_ref().len() / arity;
        IdVecEnumerator::new(arity, ids, n_rows)
    }

    /// The buffer being replayed.
    pub fn table(&self) -> &B {
        &self.ids
    }
}

impl<B: AsRef<[ValueId]>> IdEnumerator for IdVecEnumerator<B> {
    fn arity(&self) -> usize {
        self.arity
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        debug_assert_eq!(block.arity(), self.arity);
        let take = (self.n_rows - self.pos).min(block.remaining());
        if take == 0 {
            return 0;
        }
        let start = self.pos * self.arity;
        block.extend_flat(&self.ids.as_ref()[start..start + take * self.arity], take);
        self.pos += take;
        take
    }
}

/// Chains several id enumerators back to back (all must share one arity).
/// One `next_block` call may drain the tail of one stage and continue into
/// the next, so block fills stay large across stage boundaries.
pub struct IdChainEnumerator {
    arity: usize,
    stages: Vec<Box<dyn IdEnumerator + Send>>,
    current: usize,
}

impl IdChainEnumerator {
    /// Chains the given stages in order. Stages are `Send` so a chain
    /// (and the pipeline above it) can be handed to a serving thread.
    pub fn new(arity: usize, stages: Vec<Box<dyn IdEnumerator + Send>>) -> IdChainEnumerator {
        for s in &stages {
            assert_eq!(s.arity(), arity, "chained stages must share one arity");
        }
        IdChainEnumerator {
            arity,
            stages,
            current: 0,
        }
    }
}

impl IdEnumerator for IdChainEnumerator {
    fn arity(&self) -> usize {
        self.arity
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        let mut total = 0;
        while self.current < self.stages.len() && !block.is_full() {
            let n = self.stages[self.current].next_block(block);
            if n == 0 {
                self.current += 1;
            } else {
                total += n;
            }
        }
        total
    }
}

/// The value-level facade over an id enumerator: pulls blocks and decodes
/// each block through the session dictionary in one `decode_rows_into`
/// call — a build-phase context is locked once per *block*, not once per
/// row (a frozen context reads lock-free either way). This is what keeps
/// `Tuple`-yielding public APIs unchanged above the id spine.
///
/// [`Enumerator::next_into`] decodes a fresh block straight into the
/// caller's vector, so a block drain moves no answer twice;
/// [`Enumerator::next`] decodes into a buffer this facade reuses and hands
/// the answers out of it. Either way the gap between two answers is
/// constant: once per block it is one fill plus one decode of at most
/// [`DEFAULT_BLOCK_ROWS`] rows, independent of the instance.
pub struct IdDecoder<E: IdEnumerator> {
    inner: E,
    ctx: CtxView,
    block: IdBlock,
    /// Answers a `next` call decoded ahead, last-owed first, so that each
    /// is handed out by a `pop`.
    ahead: Vec<Tuple>,
    done: bool,
    pulled: usize,
    rows_decoded: usize,
    /// The value of `pulled` at which the caller's stated need ends (see
    /// [`Enumerator::expect_at_most`]); fills stop there.
    expected_end: usize,
}

impl<E: IdEnumerator> IdDecoder<E> {
    /// Wraps `inner`, decoding through `ctx`'s dictionary.
    pub fn new(inner: E, ctx: CtxView) -> IdDecoder<E> {
        let block = IdBlock::new(inner.arity(), DEFAULT_BLOCK_ROWS);
        IdDecoder {
            inner,
            ctx,
            block,
            ahead: Vec::new(),
            done: false,
            pulled: 0,
            rows_decoded: 0,
            expected_end: usize::MAX,
        }
    }

    /// Rows pulled from the inner enumerator so far.
    pub fn rows_pulled(&self) -> usize {
        self.pulled
    }

    /// Rows decoded to values so far — every pulled row, once, whether or
    /// not the caller went on to take it.
    pub fn rows_decoded(&self) -> usize {
        self.rows_decoded
    }

    /// Pulls the next block of at most `max` (≥ 1) rows and decodes it onto
    /// the end of `out`; returns the rows decoded (`0` = exhausted).
    fn fill(&mut self, out: &mut Vec<Tuple>, max: usize) -> usize {
        if self.done {
            return 0;
        }
        // Never below one row: the expectation is a hint, and a caller
        // that pulls past it is still owed every answer.
        let still_expected = self.expected_end.saturating_sub(self.pulled).max(1);
        self.block.clear();
        self.block
            .set_max_rows(still_expected.min(max).min(DEFAULT_BLOCK_ROWS));
        let n = self.inner.next_block(&mut self.block);
        if n == 0 {
            self.done = true;
            return 0;
        }
        self.pulled += n;
        self.ctx
            .decode_rows_into(self.block.arity(), n, self.block.ids(), out);
        self.rows_decoded += n;
        n
    }
}

impl<E: IdEnumerator> Enumerator for IdDecoder<E> {
    fn next(&mut self) -> Option<Tuple> {
        if self.ahead.is_empty() {
            let mut ahead = std::mem::take(&mut self.ahead);
            self.fill(&mut ahead, DEFAULT_BLOCK_ROWS);
            ahead.reverse();
            self.ahead = ahead;
        }
        self.ahead.pop()
    }

    fn next_into(&mut self, out: &mut Vec<Tuple>, max: usize) -> usize {
        let ahead = self.ahead.len();
        if ahead > 0 {
            // Answers a `next` call decoded ahead go out first, in order.
            let start = ahead.saturating_sub(max);
            out.extend(self.ahead.drain(start..).rev());
            return ahead - start;
        }
        if max == 0 {
            return 0;
        }
        self.fill(out, max)
    }

    fn expect_at_most(&mut self, rows: usize) {
        let handed_out = self.pulled - self.ahead.len();
        self.expected_end = handed_out.saturating_add(rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_storage::Value;

    fn ids(xs: &[u32]) -> Vec<ValueId> {
        xs.iter().map(|&x| ValueId(x)).collect()
    }

    #[test]
    fn vec_enumerator_fills_blocks() {
        let mut e = IdVecEnumerator::from_flat(2, ids(&[1, 2, 3, 4, 5, 6]));
        let mut block = IdBlock::new(2, 2);
        assert_eq!(e.next_block(&mut block), 2);
        assert_eq!(block.row(1), ids(&[3, 4]).as_slice());
        block.clear();
        assert_eq!(e.next_block(&mut block), 1);
        assert_eq!(block.row(0), ids(&[5, 6]).as_slice());
        block.clear();
        assert_eq!(e.next_block(&mut block), 0, "stays exhausted");
    }

    #[test]
    fn collect_ids_round_trips() {
        let flat = ids(&[7, 8, 9, 10]);
        let (got, rows) = IdVecEnumerator::from_flat(2, flat.clone()).collect_ids();
        assert_eq!(got, flat);
        assert_eq!(rows, 2);
    }

    #[test]
    fn chain_crosses_stage_boundaries_within_one_block() {
        let mut e = IdChainEnumerator::new(
            1,
            vec![
                Box::new(IdVecEnumerator::from_flat(1, ids(&[1]))),
                Box::new(IdVecEnumerator::new(1, Vec::new(), 0)),
                Box::new(IdVecEnumerator::from_flat(1, ids(&[2, 3]))),
            ],
        );
        let mut block = IdBlock::new(1, 8);
        assert_eq!(e.next_block(&mut block), 3, "one call spans all stages");
        assert_eq!(block.ids(), ids(&[1, 2, 3]).as_slice());
        block.clear();
        assert_eq!(e.next_block(&mut block), 0);
    }

    #[test]
    fn nullary_replay_counts_rows() {
        let mut e = IdVecEnumerator::new(0, Vec::new(), 3);
        let (flat, rows) = e.collect_ids();
        assert!(flat.is_empty());
        assert_eq!(rows, 3);
    }

    #[test]
    fn decoder_yields_tuples() {
        let ctx = CtxView::new();
        let a = ctx.intern(Value::Int(10));
        let b = ctx.intern(Value::Int(20));
        let inner = IdVecEnumerator::from_flat(2, vec![a, b, b, a]);
        let mut d = IdDecoder::new(inner, ctx);
        assert_eq!(
            d.collect_all(),
            vec![Tuple::from(&[10i64, 20][..]), Tuple::from(&[20i64, 10][..])]
        );
        assert_eq!(d.next(), None);
        assert_eq!((d.rows_pulled(), d.rows_decoded()), (2, 2));
    }

    fn counting_decoder(rows: u32) -> IdDecoder<IdVecEnumerator> {
        let ctx = CtxView::new();
        let ids: Vec<ValueId> = (0..rows)
            .map(|i| ctx.intern(Value::Int(i64::from(i))))
            .collect();
        IdDecoder::new(IdVecEnumerator::from_flat(1, ids), ctx)
    }

    #[test]
    fn expected_rows_bound_what_is_pulled_and_decoded() {
        let n = 2 * DEFAULT_BLOCK_ROWS + 7;
        let mut d = counting_decoder(4 * DEFAULT_BLOCK_ROWS as u32);
        d.expect_at_most(n);
        for _ in 0..n {
            assert!(d.next().is_some());
        }
        assert_eq!((d.rows_pulled(), d.rows_decoded()), (n, n));
        // Without the hint the same pulls read a whole block ahead.
        let mut d = counting_decoder(4 * DEFAULT_BLOCK_ROWS as u32);
        for _ in 0..n {
            assert!(d.next().is_some());
        }
        assert_eq!(d.rows_pulled(), 3 * DEFAULT_BLOCK_ROWS);
        // Drained to the end it has pulled every row, and decoded each once.
        let total = n + d.collect_all().len();
        assert_eq!(total, 4 * DEFAULT_BLOCK_ROWS);
        assert_eq!((d.rows_pulled(), d.rows_decoded()), (total, total));
    }

    #[test]
    fn the_expectation_is_a_hint_not_a_limit() {
        let total = DEFAULT_BLOCK_ROWS + 5;
        let mut d = counting_decoder(total as u32);
        d.expect_at_most(3);
        // Past the hint the decoder fills one row at a time, and still
        // hands out every answer.
        assert_eq!(d.collect_all().len(), total);
        assert_eq!((d.rows_pulled(), d.rows_decoded()), (total, total));
        // A later hint counts from the answers already handed out.
        let mut d = counting_decoder(total as u32);
        assert!(d.next().is_some());
        d.expect_at_most(2);
        assert!(d.next().is_some() && d.next().is_some());
        assert_eq!(
            d.rows_pulled(),
            DEFAULT_BLOCK_ROWS,
            "still inside the first block"
        );
    }

    #[test]
    fn next_into_serves_what_next_buffered_then_decodes_fresh_blocks() {
        let total = 2 * DEFAULT_BLOCK_ROWS + 3;
        let mut d = counting_decoder(total as u32);
        let mut out = vec![d.next().expect("first answer")];
        assert_eq!(d.rows_pulled(), DEFAULT_BLOCK_ROWS, "next buffers a block");
        assert_eq!(d.next_into(&mut out, 10), 10);
        assert_eq!(d.next_into(&mut out, usize::MAX), DEFAULT_BLOCK_ROWS - 11);
        assert_eq!(d.rows_pulled(), DEFAULT_BLOCK_ROWS, "all from the buffer");
        assert_eq!(d.next_into(&mut out, 0), 0, "max 0 is not exhaustion");
        assert_eq!(d.next_into(&mut out, 5), 5, "a fresh block of five");
        assert_eq!(d.rows_pulled(), DEFAULT_BLOCK_ROWS + 5);
        out.extend(d.next());
        let rest = total - DEFAULT_BLOCK_ROWS - 6;
        assert_eq!(d.next_into(&mut out, usize::MAX), rest, "next's buffer");
        assert_eq!(d.next_into(&mut out, usize::MAX), 0);
        assert_eq!(d.next(), None);
        let want: Vec<Tuple> = (0..total as i64).map(|i| Tuple::from(&[i][..])).collect();
        assert_eq!(out, want, "every answer once, in order");
        assert_eq!((d.rows_pulled(), d.rows_decoded()), (total, total));
    }

    #[test]
    fn nullary_rows_decode_to_empty_tuples() {
        let mut d = IdDecoder::new(IdVecEnumerator::new(0, Vec::new(), 3), CtxView::new());
        assert_eq!(d.collect_all(), vec![Tuple::empty(); 3]);
    }

    #[test]
    fn a_shared_table_replays_from_the_one_buffer() {
        let table: std::sync::Arc<[ValueId]> = ids(&[1, 2, 3, 4]).into();
        for _ in 0..2 {
            let (got, rows) = IdVecEnumerator::new(2, table.clone(), 2).collect_ids();
            assert_eq!((got.as_slice(), rows), (&*table, 2));
        }
    }
}

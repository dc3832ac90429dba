//! Per-request enumeration budgets, enforced cooperatively at block
//! boundaries.
//!
//! The serving runtime (`crates/serve`) must guarantee that a slow,
//! deadline'd, or cancelled request terminates promptly *without*
//! preempting the enumeration mid-block: the id spine produces answers in
//! blocks of [`DEFAULT_BLOCK_ROWS`] rows, so checking the budget once per
//! block keeps the enforcement overhead off the per-answer hot path while
//! bounding overrun to a single block — precisely the granularity the
//! Cheater's Lemma pacing already works at. [`Budgeted`] wraps any
//! value-level [`Enumerator`] with that discipline; [`QueryBudget`] is the
//! declarative limit set, [`CancelToken`] the out-of-band kill switch, and
//! [`Truncation`] records which limit actually fired.
//!
//! This module deliberately uses no locks (lint L2: no `Mutex` in the
//! enumerate crate) — cancellation is one relaxed-atomic read per block.

use crate::enumerator::Enumerator;
use crate::idenum::DEFAULT_BLOCK_ROWS;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ucq_storage::Tuple;

/// Declarative per-request limits; `None` everywhere means unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Wall-clock deadline, checked at block boundaries: the request
    /// terminates within one block of the deadline passing.
    pub deadline: Option<Instant>,
    /// Maximum answers to emit (checked exactly; the first suppressed
    /// answer marks the stream truncated).
    pub max_answers: Option<usize>,
    /// Maximum budget-check blocks ([`DEFAULT_BLOCK_ROWS`] answers each)
    /// to enter.
    pub max_blocks: Option<usize>,
}

impl QueryBudget {
    /// No limits.
    pub fn unlimited() -> QueryBudget {
        QueryBudget::default()
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> QueryBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> QueryBudget {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Caps the number of emitted answers.
    pub fn with_max_answers(mut self, n: usize) -> QueryBudget {
        self.max_answers = Some(n);
        self
    }

    /// Caps the number of enumeration blocks.
    pub fn with_max_blocks(mut self, n: usize) -> QueryBudget {
        self.max_blocks = Some(n);
        self
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_answers.is_some() || self.max_blocks.is_some()
    }
}

/// Why a [`Budgeted`] stream stopped before natural exhaustion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Truncation {
    /// The wall-clock deadline passed.
    Deadline,
    /// The answer cap was reached (more answers existed).
    MaxAnswers,
    /// The block cap was reached.
    MaxBlocks,
    /// The [`CancelToken`] fired.
    Cancelled,
}

impl std::fmt::Display for Truncation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Truncation::Deadline => "deadline",
            Truncation::MaxAnswers => "max-answers",
            Truncation::MaxBlocks => "max-blocks",
            Truncation::Cancelled => "cancelled",
        })
    }
}

/// A cloneable out-of-band cancellation flag; one relaxed load per block
/// on the enumeration side.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token; every [`Budgeted`] holding a clone truncates at
    /// its next block boundary.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// An [`Enumerator`] adapter enforcing a [`QueryBudget`] at block
/// boundaries.
///
/// Deadline, cancellation, and the block cap are checked once every
/// `stride` answers (default [`DEFAULT_BLOCK_ROWS`], the id spine's block
/// size), so a firing limit stops the stream within one block. The answer
/// cap is exact: the stream reports [`Truncation::MaxAnswers`] only if at
/// least one more answer actually existed. A [`Enumerator::next_into`]
/// call takes at most the rest of the current stride, so a block-wise
/// drain checks the budget once per call and stops exactly where an
/// answer-at-a-time drain would.
pub struct Budgeted<E> {
    inner: E,
    budget: QueryBudget,
    cancel: Option<CancelToken>,
    stride: usize,
    answers: usize,
    blocks: usize,
    truncated: Option<Truncation>,
    done: bool,
}

impl<E: Enumerator> Budgeted<E> {
    /// Wraps `inner` under `budget` with the default block stride. An
    /// answer cap is passed down as [`Enumerator::expect_at_most`]: the
    /// cap plus the one further answer that proves
    /// [`Truncation::MaxAnswers`], so a block-decoding producer stops
    /// there instead of preparing a block nobody reads.
    pub fn new(mut inner: E, budget: QueryBudget) -> Budgeted<E> {
        if let Some(max) = budget.max_answers {
            inner.expect_at_most(max.saturating_add(1));
        }
        Budgeted {
            inner,
            budget,
            cancel: None,
            stride: DEFAULT_BLOCK_ROWS,
            answers: 0,
            blocks: 0,
            truncated: None,
            done: false,
        }
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Budgeted<E> {
        self.cancel = Some(token);
        self
    }

    /// Overrides the budget-check stride (clamped to ≥ 1); test and
    /// fine-grained-latency knob.
    pub fn with_stride(mut self, stride: usize) -> Budgeted<E> {
        self.stride = stride.max(1);
        self
    }

    /// Why the stream was cut short, if it was.
    pub fn truncated_by(&self) -> Option<Truncation> {
        self.truncated
    }

    /// Answers emitted so far.
    pub fn answers_emitted(&self) -> usize {
        self.answers
    }

    /// Budget-check blocks entered so far.
    pub fn blocks_entered(&self) -> usize {
        self.blocks
    }

    /// Unwraps the inner enumerator.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// The one budget check behind [`Enumerator::next`] and
    /// [`Enumerator::next_into`]: how many answers the next pull may take
    /// (at most `max`), or `0` when the stream stops here. At a block
    /// boundary it checks cancellation, the deadline and the block cap; a
    /// pull never crosses the next boundary or the answer cap. At the cap
    /// it probes one further answer, so [`Truncation::MaxAnswers`] is
    /// reported only if one existed.
    fn allowance(&mut self, max: usize) -> usize {
        if self.done || max == 0 {
            return 0;
        }
        let into_block = self.answers % self.stride;
        if into_block == 0 {
            // Block boundary (including before the very first answer).
            let cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
            let fired = if cancelled {
                Some(Truncation::Cancelled)
            } else if self.budget.deadline.is_some_and(|d| Instant::now() >= d) {
                Some(Truncation::Deadline)
            } else if self.budget.max_blocks.is_some_and(|m| self.blocks >= m) {
                Some(Truncation::MaxBlocks)
            } else {
                None
            };
            if fired.is_some() {
                self.truncated = fired;
                self.done = true;
                return 0;
            }
            self.blocks += 1;
        }
        let mut allow = max.min(self.stride - into_block);
        if let Some(cap) = self.budget.max_answers {
            if self.answers >= cap {
                if self.inner.next().is_some() {
                    self.truncated = Some(Truncation::MaxAnswers);
                }
                self.done = true;
                return 0;
            }
            allow = allow.min(cap - self.answers);
        }
        allow
    }

    /// Books `n` answers pulled under an [`Budgeted::allowance`]; `0`
    /// means the inner stream is exhausted.
    fn took(&mut self, n: usize) -> usize {
        self.answers += n;
        self.done |= n == 0;
        n
    }
}

impl<E: Enumerator> Enumerator for Budgeted<E> {
    fn next(&mut self) -> Option<Tuple> {
        if self.allowance(1) == 0 {
            return None;
        }
        let answer = self.inner.next();
        self.took(usize::from(answer.is_some()));
        answer
    }

    fn next_into(&mut self, out: &mut Vec<Tuple>, max: usize) -> usize {
        match self.allowance(max) {
            0 => 0,
            allow => {
                let n = self.inner.next_into(out, allow);
                self.took(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerator::VecEnumerator;

    fn t(x: i64) -> Tuple {
        Tuple::from(&[x][..])
    }

    fn stream(n: i64) -> VecEnumerator {
        VecEnumerator::new((0..n).map(t).collect())
    }

    /// What a drain saw: the answers, then `truncated_by`,
    /// `answers_emitted` and `blocks_entered`.
    type Drained = (Vec<Tuple>, Option<Truncation>, usize, usize);

    /// Drains `b`: `first` answers, then `between` runs, then the rest.
    /// `per_call` is `None` for one [`Enumerator::next`] per answer, or
    /// the `max` of every [`Enumerator::next_into`] call.
    fn drain_with(
        mut b: Budgeted<VecEnumerator>,
        per_call: Option<usize>,
        first: usize,
        between: &dyn Fn(),
    ) -> Drained {
        let mut got = Vec::new();
        match per_call {
            None => {
                got.extend((0..first).map_while(|_| b.next()));
                between();
                while let Some(t) = b.next() {
                    got.push(t);
                }
            }
            Some(max) => {
                while got.len() < first {
                    let want = max.min(first - got.len());
                    if b.next_into(&mut got, want) == 0 {
                        break;
                    }
                }
                between();
                while b.next_into(&mut got, max) > 0 {}
            }
        }
        (
            got,
            b.truncated_by(),
            b.answers_emitted(),
            b.blocks_entered(),
        )
    }

    /// Drains fresh copies of one budgeted stream answer by answer and
    /// block-wise (whole strides, and short calls that split strides);
    /// every drain must see the same thing.
    fn drained(make: impl Fn() -> Budgeted<VecEnumerator>) -> Drained {
        let one_by_one = drain_with(make(), None, 0, &|| {});
        for per_call in [usize::MAX, 3] {
            let blockwise = drain_with(make(), Some(per_call), 0, &|| {});
            assert_eq!(blockwise, one_by_one, "next_into({per_call}) vs next");
        }
        one_by_one
    }

    const STRIDE: usize = 8;
    const TOTAL: usize = 5 * STRIDE + 3;

    fn capped(cap: usize) -> Drained {
        drained(|| {
            Budgeted::new(
                stream(TOTAL as i64),
                QueryBudget::unlimited().with_max_answers(cap),
            )
            .with_stride(STRIDE)
        })
    }

    #[test]
    fn unlimited_budget_passes_everything_through() {
        let (got, why, emitted, _) = drained(|| Budgeted::new(stream(5), QueryBudget::unlimited()));
        assert_eq!(got.len(), 5);
        assert_eq!(why, None);
        assert_eq!(emitted, 5);
    }

    #[test]
    fn max_answers_cuts_exactly() {
        let (got, why, _, _) =
            drained(|| Budgeted::new(stream(10), QueryBudget::unlimited().with_max_answers(3)));
        assert_eq!(got.len(), 3);
        assert_eq!(why, Some(Truncation::MaxAnswers));
    }

    #[test]
    fn max_answers_cuts_exactly_around_every_stride_boundary() {
        for cap in [0, 1, STRIDE - 1, STRIDE, STRIDE + 1, TOTAL - 1] {
            let (got, why, emitted, blocks) = capped(cap);
            assert_eq!(got, (0..cap as i64).map(t).collect::<Vec<_>>(), "cap {cap}");
            assert_eq!(why, Some(Truncation::MaxAnswers), "cap {cap}");
            assert_eq!(emitted, cap);
            // The probe past the cap enters a block of its own when the
            // cap sits on a boundary.
            assert_eq!(blocks, cap / STRIDE + 1, "cap {cap}");
        }
    }

    #[test]
    fn max_answers_equal_to_stream_is_not_a_truncation() {
        let (got, why, _, _) =
            drained(|| Budgeted::new(stream(3), QueryBudget::unlimited().with_max_answers(3)));
        assert_eq!(got.len(), 3);
        assert_eq!(why, None, "nothing was actually suppressed");
        assert_eq!(capped(TOTAL).1, None);
    }

    #[test]
    fn max_blocks_bounds_work_in_strides() {
        let (got, why, _, blocks) = drained(|| {
            Budgeted::new(stream(100), QueryBudget::unlimited().with_max_blocks(2)).with_stride(10)
        });
        assert_eq!(got.len(), 20);
        assert_eq!(why, Some(Truncation::MaxBlocks));
        assert_eq!(blocks, 2);
    }

    #[test]
    fn expired_deadline_stops_within_one_stride() {
        let past = Instant::now() - Duration::from_millis(1);
        let (got, why, _, blocks) = drained(|| {
            Budgeted::new(stream(100), QueryBudget::unlimited().with_deadline(past)).with_stride(4)
        });
        assert_eq!(
            got.len(),
            0,
            "deadline already passed: truncate at the first boundary"
        );
        assert_eq!(why, Some(Truncation::Deadline));
        assert_eq!(blocks, 0);
    }

    #[test]
    fn mid_stream_deadline_overruns_at_most_one_stride() {
        // The deadline is checked only at boundaries, so up to one full
        // stride of answers may still be emitted after it passes.
        let mut b = Budgeted::new(
            stream(100),
            QueryBudget::unlimited().with_deadline(Instant::now()),
        )
        .with_stride(8);
        let got = b.collect_all().len();
        assert!(got <= 8, "overran more than one stride: {got}");
        assert_eq!(b.truncated_by(), Some(Truncation::Deadline));
    }

    #[test]
    fn cancel_token_truncates_at_next_boundary() {
        // Three answers out, then the token fires.
        let drain = |per_call| {
            let token = CancelToken::new();
            let b = Budgeted::new(stream(100), QueryBudget::unlimited())
                .with_cancel(token.clone())
                .with_stride(5);
            drain_with(b, per_call, 3, &|| token.cancel())
        };
        let one_by_one = drain(None);
        for per_call in [usize::MAX, 3] {
            assert_eq!(drain(Some(per_call)), one_by_one, "next_into({per_call})");
        }
        let (got, why, emitted, blocks) = one_by_one;
        assert_eq!(got.len(), 5, "ran to the stride boundary, then stopped");
        assert_eq!(why, Some(Truncation::Cancelled));
        assert_eq!((emitted, blocks), (5, 1));
    }

    #[test]
    fn budget_builder_composes() {
        let budget = QueryBudget::unlimited()
            .with_timeout(Duration::from_secs(3600))
            .with_max_answers(7)
            .with_max_blocks(9);
        assert!(budget.is_limited());
        assert!(budget.deadline.is_some());
        assert_eq!(budget.max_answers, Some(7));
        assert_eq!(budget.max_blocks, Some(9));
        assert!(!QueryBudget::unlimited().is_limited());
    }

    #[test]
    fn exhausted_budgeted_stream_stays_exhausted() {
        let mut b = Budgeted::new(stream(2), QueryBudget::unlimited().with_max_answers(1));
        assert_eq!(b.next(), Some(t(0)));
        assert_eq!(b.next(), None);
        assert_eq!(b.next(), None, "stays exhausted after truncation");
        assert_eq!(b.next_into(&mut Vec::new(), 4), 0, "block-wise too");
        assert_eq!(b.truncated_by(), Some(Truncation::MaxAnswers));
    }
}

//! E7 — the Cheater's Lemma compiler (Lemma 5): dedup + pacing overhead on
//! duplicated id streams vs a raw block-pumping drain.
//!
//! Both sides run the id spine end to end and decode every *emitted*
//! answer through the shared dictionary, so the measured delta is exactly
//! the Cheater machinery: per-result `InlineKey` dedup, flat-queue
//! parking, and Lemma 5 pacing. The assertions pin the spine's decode
//! discipline on the facade each side drives: the raw drain's `IdDecoder`
//! decodes what it pulls, once; the bare Cheater's own value facade
//! decodes exactly once per emission (`decoded == emitted`), never per
//! inner result.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use ucq_enumerate::{Cheater, Enumerator, IdDecoder, IdVecEnumerator};
use ucq_storage::{CtxView, Value, ValueId};

/// A width-2 id stream of `unique` distinct rows, each repeated `dup`
/// times consecutively.
fn stream(ctx: &CtxView, unique: usize, dup: usize) -> Vec<ValueId> {
    (0..unique)
        .flat_map(|i| {
            let row = [
                ctx.intern(Value::Int(i as i64)),
                ctx.intern(Value::Int((i * 7) as i64)),
            ];
            std::iter::repeat_n(row, dup)
        })
        .flatten()
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_cheater");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let unique = 100_000usize;
    for dup in [1usize, 2, 4] {
        let ctx = CtxView::new();
        let ids = stream(&ctx, unique, dup);
        group.bench_with_input(BenchmarkId::new("raw_drain", dup), &dup, |b, _| {
            b.iter(|| {
                let inner = IdVecEnumerator::from_flat(2, ids.clone());
                let mut raw = IdDecoder::new(inner, ctx.clone());
                let n = raw.collect_all().len();
                assert_eq!((raw.rows_pulled(), raw.rows_decoded()), (n, n));
                n
            })
        });
        group.bench_with_input(BenchmarkId::new("cheater", dup), &dup, |b, _| {
            b.iter(|| {
                let inner = IdVecEnumerator::from_flat(2, ids.clone());
                // Cardinality-hinted, as a serving caller would construct
                // it (the pipeline passes its early-answer count).
                let mut ch = Cheater::with_capacity_hint(inner, dup, ctx.clone(), unique);
                let n = ch.collect_all().len();
                let s = ch.stats();
                assert_eq!(n, unique);
                assert_eq!(s.emitted, unique);
                assert_eq!(
                    s.decoded, s.emitted,
                    "decode once per emission, not per inner result"
                );
                assert_eq!(s.inner_results, unique * dup);
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

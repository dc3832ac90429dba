//! E12 — freeze-and-share serving: one frozen session drained by N OS
//! threads, plus the decode micro-benchmark on the emission path through
//! a build-phase vs a frozen context view.
//!
//! The `serve` cells hold the total work fixed (16 full drains) and split
//! it across 1/2/4/8 threads, so the cell time shrinking with the thread
//! count is genuine scaling. On a single-core host all thread counts
//! time-share one CPU and the cells stay flat — the bench reports the
//! hardware's actual ceiling, not a model of it.
//!
//! The `decode` cells replay E7's emission path (a duplicate-free id
//! stream drained through the `Cheater`, which decodes once per emitted
//! answer) against the same dictionary before and after `freeze()`: the
//! frozen side decodes each emission through the lock-free snapshot
//! (`decode_fast`), the build side takes the session mutex per emission.
//! (`IdDecoder` itself decodes block-at-a-time — one lock per block —
//! so the per-emission path is where the freeze shows up.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use ucq_bench::{engine_for, instance_for};
use ucq_enumerate::{Cheater, Enumerator, IdVecEnumerator};
use ucq_storage::{CtxView, Value, ValueId};
use ucq_workloads::drive_frozen_fixed_work;

/// A width-2 id stream of `unique` distinct rows (E7's shape, dup=1).
fn stream(ctx: &CtxView, unique: usize) -> Vec<ValueId> {
    (0..unique)
        .flat_map(|i| {
            [
                ctx.intern(Value::Int(i as i64)),
                ctx.intern(Value::Int((i * 7) as i64)),
            ]
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_concurrent_serving");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    // Thread-scaling cells: fixed total work, more workers.
    const TOTAL_DRAINS: usize = 16;
    for (id, rows) in [("two_free_connex", 8_000usize), ("example2", 2_000)] {
        let engine = engine_for(id);
        let inst = instance_for(id, rows, 11);
        let frozen = engine
            .session(&inst)
            .freeze()
            .expect("DelayClin strategy freezes");
        let single = frozen.enumerate().expect("strategy").collect_all().len();
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("serve_{id}"), threads),
                &threads,
                |b, &t| {
                    b.iter(|| {
                        let report = drive_frozen_fixed_work(&frozen, t, TOTAL_DRAINS);
                        assert_eq!(report.total_answers, single * TOTAL_DRAINS);
                        report.total_answers
                    })
                },
            );
        }
    }

    // Decode micro-bench: E7's emission path — a bare Cheater's own value
    // facade, hence its own `decoded` counter — through each context phase.
    let unique = 100_000usize;
    let build = CtxView::new();
    let ids = stream(&build, unique);
    let frozen_view = build.freeze();
    for (label, view) in [("build", &build), ("frozen", &frozen_view)] {
        group.bench_with_input(BenchmarkId::new("decode", label), view, |b, view| {
            b.iter(|| {
                let inner = IdVecEnumerator::from_flat(2, ids.clone());
                let mut ch = Cheater::with_capacity_hint(inner, 1, view.clone(), unique);
                let n = ch.collect_all().len();
                assert_eq!(n, unique);
                assert_eq!(ch.stats().decoded, n, "decode once per emission");
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Fast-table comparison: the d-left hash table against the BTreeMap
//! `AgingMap` oracle at the ≥10k-entry scale the All-Path scalability
//! study flags, plus the calendar queue against the binary heap it
//! replaced, the probe-once refresh against the look-up-twice one, and
//! the timer wheel's idle advance against its insert.
//!
//! The PR-5 acceptance bar lives here: `tables/dleft_get_hit_10k` must
//! be ≥2× faster than `tables/btree_get_hit_10k`. The idle-sweep pair
//! shows the timer wheel's O(expired) background aging against the
//! oracle's O(table) scan.

use arppath_bench::micro;
use arppath_netsim::SimTime;
use arppath_switch::wheel::TimerWheel;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_tables(c: &mut Criterion) {
    let n = micro::TABLE_ENTRIES;
    let hits = micro::key_schedule(n, false);
    let misses = micro::key_schedule(n, true);
    let mut dleft = micro::dleft_fixture(n);
    let mut btree = micro::btree_fixture(n);
    let now = SimTime(1);

    let mut g = c.benchmark_group("tables");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("dleft_get_hit_10k", |b| {
        b.iter(|| {
            let sum: u64 =
                hits.iter().filter_map(|k| dleft.get(k, now).copied()).map(u64::from).sum();
            black_box(sum)
        })
    });
    g.bench_function("btree_get_hit_10k", |b| {
        b.iter(|| {
            let sum: u64 =
                hits.iter().filter_map(|k| btree.get(k, now).copied()).map(u64::from).sum();
            black_box(sum)
        })
    });
    g.bench_function("dleft_get_miss_10k", |b| {
        b.iter(|| black_box(misses.iter().filter(|k| dleft.get(k, now).is_some()).count()))
    });
    g.bench_function("btree_get_miss_10k", |b| {
        b.iter(|| black_box(misses.iter().filter(|k| btree.get(k, now).is_some()).count()))
    });
    g.bench_function("dleft_sweep_idle_10k", |b| b.iter(|| black_box(dleft.sweep(now))));
    g.bench_function("btree_sweep_idle_10k", |b| b.iter(|| black_box(btree.sweep(now))));
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(1024 * micro::CHURN_COHORT));
    g.bench_function("calq_churn_1k", |b| b.iter(|| black_box(micro::calq_churn(1024))));
    g.bench_function("heap_churn_1k", |b| b.iter(|| black_box(micro::heap_churn(1024))));
    // The measured k16_perm flood shape: ~51 events per instant.
    g.throughput(Throughput::Elements(1024 * micro::DENSE_COHORT));
    let (mut calq, mut heap) = (micro::calq_dense(), micro::heap_dense());
    g.bench_function("calq_dense", |b| b.iter(|| black_box(calq.run(1024))));
    g.bench_function("heap_dense", |b| b.iter(|| black_box(heap.run(1024))));
    // ...and the same after a start-up burst has been round the ring.
    let mut rotating = micro::calq_rotating();
    g.bench_function("calq_rotating", |b| b.iter(|| black_box(rotating.run(1024))));
    g.finish();
}

/// The PR 14 pairs: what a unicast frame does to the table (hit, then
/// refresh) through one probe and through two, and what a flooding
/// bridge's scrub costs when nothing is due against filing a deadline.
fn bench_hot_path(c: &mut Criterion) {
    let now = SimTime(1);
    let mut g = c.benchmark_group("hot_path");
    let (mut table, keys) = micro::refresh_fixture();
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("dleft_get_touch", |b| {
        b.iter(|| black_box(micro::dleft_get_touch(&mut table, &keys, now)))
    });
    g.bench_function("dleft_probe_refresh", |b| {
        b.iter(|| black_box(micro::dleft_probe_refresh(&mut table, &keys, now)))
    });
    g.throughput(Throughput::Elements(u64::from(micro::WHEEL_DEADLINES)));
    let mut wheel = TimerWheel::default();
    g.bench_function("wheel_insert", |b| {
        b.iter(|| black_box(micro::wheel_insert(&mut wheel, now)))
    });
    const CALLS: u64 = 256;
    g.throughput(Throughput::Elements(CALLS));
    let mut idle = micro::IdleWheel::new();
    g.bench_function("wheel_idle_advance", |b| {
        b.iter(|| {
            // Stay inside the horizon: a fresh wheel every dozen
            // iterations is an outlier the median sheds.
            if idle.calls_left() < CALLS {
                idle = micro::IdleWheel::new();
            }
            black_box(idle.run(CALLS))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_tables, bench_scheduler, bench_hot_path);
criterion_main!(benches);

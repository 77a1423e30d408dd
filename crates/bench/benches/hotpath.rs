//! Benchmarks of the optimized fault-path hot loops against their
//! reference implementations, plus end-to-end experiment anchors.
//!
//! * `dedup` — the sort-based scratch-reusing fast path
//!   (`classify_duplicates_with`) vs the allocating reference
//!   (`classify_duplicates`) on the same batches.
//! * `service_batch` — one full `UvmDriver::service_batch_with` call, with a
//!   fresh scratch per call vs one reused scratch.
//! * `event_queue` / `radix_lookup` — the simulator's two busiest
//!   substrate structures.
//! * `e2e` — two full paper experiments (Fig. 3 and Fig. 12) as
//!   end-to-end regression anchors for the whole pipeline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use uvm_bench::perf::{make_batch, service_batch_once, service_batch_once_with};
use uvm_core::driver::dedup::{
    classify_duplicates, classify_duplicates_with, DedupResult, DedupScratch,
};
use uvm_core::driver::service::ServiceScratch;
use uvm_core::experiments::{fig03_vecadd, fig12_oversub};
use uvm_core::hostos::radix_tree::RadixTree;
use uvm_core::sim::event::EventQueue;
use uvm_core::sim::time::SimTime;

fn bench_dedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_dedup");
    for &(n, dups) in &[(256usize, 4usize), (2048, 8)] {
        let batch = make_batch(n, dups);
        g.bench_with_input(
            BenchmarkId::new("reference", format!("{n}x{dups}")),
            &batch,
            |b, batch| b.iter(|| classify_duplicates(black_box(batch)).unique.len()),
        );
        g.bench_with_input(
            BenchmarkId::new("fast_scratch", format!("{n}x{dups}")),
            &batch,
            |b, batch| {
                let mut scratch = DedupScratch::default();
                let mut out = DedupResult::default();
                b.iter(|| {
                    classify_duplicates_with(black_box(batch), &mut scratch, &mut out);
                    out.unique.len()
                });
            },
        );
    }
    g.finish();
}

fn bench_service_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_service");
    // Fresh scratch per batch: every call pays the dedup/grouping/eviction
    // arena allocations.
    g.bench_function("service_batch_1024x4blocks", |b| {
        b.iter(|| black_box(service_batch_once()));
    });
    // One scratch for the whole loop — the run loop's steady state: all
    // arenas (dedup keys, grouping, attribution, eviction victims) arrive
    // warm after the first batch.
    g.bench_function("service_batch_1024x4blocks_warm_scratch", |b| {
        let mut scratch = ServiceScratch::default();
        b.iter(|| black_box(service_batch_once_with(&mut scratch)));
    });
    g.finish();
}

/// A deadline distribution: event index → firing time (ns).
type DeadlineDist = fn(u32) -> u64;

/// 10k deadlines drawn from `dist`, scheduled then fully drained — the
/// simulator run loop's dominant operation pair.
fn queue_schedule_pop_10k(dist: DeadlineDist) -> u64 {
    let mut q: EventQueue<u32> = EventQueue::with_capacity(10_000);
    for i in 0..10_000u32 {
        q.schedule(SimTime(dist(i)), i);
    }
    let mut sum = 0u64;
    while let Some((_, e)) = q.pop() {
        sum += u64::from(e);
    }
    sum
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_event_queue");
    // Deadline mixes chosen to stress different wheel mechanisms:
    // `uniform` scatters across low levels (the regression-gate shape),
    // `bursty` piles 64 same-instant events per slot so FIFO tie-breaking
    // and the sorted-run drain dominate, and `long_horizon` lands every
    // deadline in the upper levels so pops cascade events downward.
    let dists: [(&str, DeadlineDist); 3] = [
        ("uniform", |i| u64::from(i.wrapping_mul(2_654_435_761) % 1_000_000)),
        ("bursty", |i| u64::from(i / 64) * 10_007),
        ("long_horizon", |i| {
            (u64::from(i.wrapping_mul(2_654_435_761)) << 28) | u64::from(i % 1024)
        }),
    ];
    for (name, dist) in dists {
        g.bench_with_input(BenchmarkId::new("schedule_pop_10k", name), &dist, |b, &dist| {
            b.iter(|| queue_schedule_pop_10k(black_box(dist)));
        });
    }
    g.finish();
}

fn bench_radix_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_radix");
    let mut tree = RadixTree::new();
    for k in 0..32_768u64 {
        tree.insert(k * 7, k);
    }
    g.bench_function("lookup_sweep_32768", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for k in 0..32_768u64 {
                if tree.get(black_box(k * 7)).is_some() {
                    hits += 1;
                }
            }
            hits
        });
    });
    g.finish();
}

fn bench_e2e(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_e2e");
    g.bench_function("fig3_vecadd", |b| {
        b.iter(|| fig03_vecadd::run(black_box(1)).batches.len());
    });
    g.bench_function("fig12_oversub", |b| {
        b.iter(|| fig12_oversub::run(black_box(1)).points.len());
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dedup,
    bench_service_batch,
    bench_event_queue,
    bench_radix_lookup,
    bench_e2e
);
criterion_main!(benches);

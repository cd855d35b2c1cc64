//! Microbenchmarks of Seer's inference machinery: the UPDATE-Seer-LOCKS
//! cost (Alg. 5), the Gaussian percentile math, the activeTxs scan, and
//! the merge-period ablation (DESIGN.md §5, items 2 and 4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seer::gaussian::{gaussian_percentile, std_normal_quantile};
use seer::inference::{
    infer_conflict_pairs, InferenceScratch, Thresholds, MIN_DISCRIMINATIVE_SIGMA,
};
use seer::stats::MergedStats;
use seer::{Seer, SeerConfig};
use seer_runtime::{run, DriverConfig, Workload};
use seer_sim::SimRng;
use seer_stamp::Benchmark;
use std::hint::black_box;

fn populated_stats(blocks: usize, seed: u64) -> MergedStats {
    let mut rng = SimRng::new(seed);
    let mut m = MergedStats::new(blocks);
    for _ in 0..blocks * blocks * 40 {
        let x = rng.below(blocks as u64) as usize;
        let y = rng.below(blocks as u64) as usize;
        if rng.chance(0.4) {
            m.add_abort(x, [y].into_iter());
        } else {
            m.add_commit(x, [y].into_iter());
        }
    }
    m
}

/// Alg. 5: cost of a full lock-scheme recomputation as the number of
/// atomic blocks grows (O(blocks²)), over reused scratch as the scheduler
/// runs it.
fn update_locks_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_seer_locks");
    for blocks in [4usize, 16, 64] {
        let stats = populated_stats(blocks, 3);
        group.bench_function(BenchmarkId::from_parameter(blocks), |b| {
            let th = Thresholds::default();
            let mut scratch = InferenceScratch::default();
            b.iter(|| {
                let pairs =
                    infer_conflict_pairs(&stats, th, MIN_DISCRIMINATIVE_SIGMA, &mut scratch, None);
                black_box(pairs.len())
            });
        });
    }
    group.finish();
}

fn gaussian_math(c: &mut Criterion) {
    let mut group = c.benchmark_group("gaussian");
    group.bench_function("quantile", |b| {
        b.iter(|| black_box(std_normal_quantile(black_box(0.8))));
    });
    group.bench_function("percentile", |b| {
        b.iter(|| {
            black_box(gaussian_percentile(
                black_box(0.4),
                black_box(0.02),
                black_box(0.8),
            ))
        });
    });
    group.finish();
}

/// Merge-period ablation: end-to-end speedup sensitivity to how often the
/// statistics are merged and the scheme recomputed.
fn merge_period_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_period");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for period in [100u64, 500, 5_000] {
        group.bench_function(BenchmarkId::from_parameter(period), |b| {
            b.iter(|| {
                let threads = 8;
                let mut w = Benchmark::KmeansHigh.instantiate(threads, 40);
                let blocks = w.num_blocks();
                let mut cfg = SeerConfig::full();
                cfg.update_period_execs = period;
                let mut sched = Seer::new(cfg, threads, blocks);
                let m = run(&mut w, &mut sched, &DriverConfig::paper_machine(threads, 9));
                black_box(m.speedup())
            });
        });
    }
    group.finish();
}

/// Sampling ablation (paper future work): overhead/quality trade-off of
/// registering only a fraction of commit/abort events.
fn sampling_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for p in [1.0f64, 0.5, 0.1] {
        group.bench_function(BenchmarkId::from_parameter(p), |b| {
            b.iter(|| {
                let threads = 8;
                let mut w = Benchmark::KmeansHigh.instantiate(threads, 40);
                let blocks = w.num_blocks();
                let mut sched = Seer::new(SeerConfig::with_sampling(p), threads, blocks);
                let m = run(&mut w, &mut sched, &DriverConfig::paper_machine(threads, 9));
                black_box(m.speedup())
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = update_locks_cost, gaussian_math, merge_period_ablation, sampling_ablation
}
criterion_main!(benches);

//! Figure 3 kernel: one full simulated run per (benchmark, policy) cell at
//! 8 threads, plus the whole Figure 3 plan through the cell executor at 1
//! and 4 jobs (the wall-clock quantity `--jobs`/`SEER_JOBS` buys). The
//! timed quantity is the simulator's cost of regenerating cells; the
//! *figures themselves* come from `seer experiment fig3`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seer_bench::{bench_executor, simulate_cold};
use seer_harness::{Cell, Plan, PolicyKind};
use seer_stamp::Benchmark;
use std::hint::black_box;

fn fig3_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for benchmark in Benchmark::STAMP {
        for policy in PolicyKind::FIGURE3 {
            let id = BenchmarkId::new(benchmark.name(), policy.label());
            group.bench_function(id, |b| {
                b.iter(|| {
                    let m = simulate_cold(Cell {
                        benchmark,
                        policy,
                        threads: 8,
                    });
                    black_box(m.speedup())
                });
            });
        }
    }
    group.finish();
}

fn fig3_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_plan");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for jobs in [1usize, 4] {
        let id = BenchmarkId::new("jobs", jobs);
        group.bench_function(id, |b| {
            b.iter(|| {
                // A fresh executor per iteration: all 32 cells are misses,
                // so this times the fan-out, not the cache.
                let exec = bench_executor(jobs);
                let mut plan = Plan::new();
                plan.add_grid(
                    &Benchmark::STAMP,
                    &PolicyKind::FIGURE3,
                    &[8],
                    exec.config(),
                );
                exec.execute(&plan);
                black_box(exec.misses())
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = fig3_cells, fig3_plan
}
criterion_main!(benches);

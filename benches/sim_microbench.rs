//! Microbenchmarks of the simulation substrate: event-queue throughput and
//! the multi-CAS lock-acquisition ablation (DESIGN.md §5, item 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seer::{Seer, SeerConfig};
use seer_runtime::{run, DriverConfig, Workload};
use seer_sim::{EventQueue, SimRng};
use seer_stamp::Benchmark;
use std::hint::black_box;

/// Workload scale of the ablation runs.
const BENCH_SCALE: f64 = 0.05;

fn event_queue_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [1_000usize, 100_000] {
        group.bench_function(BenchmarkId::new("push_pop", n), |b| {
            let mut rng = SimRng::new(7);
            let times: Vec<u64> = (0..n).map(|_| rng.below(1 << 20)).collect();
            b.iter(|| {
                let mut q = EventQueue::new();
                for &t in &times {
                    q.push(t, ());
                }
                let mut count = 0;
                while q.pop().is_some() {
                    count += 1;
                }
                black_box(count)
            });
        });
    }
    group.finish();
}

/// Multi-CAS ablation: full Seer with and without the HTM-assisted
/// multi-lock acquisition, on a workload whose lock rows span several
/// blocks (genome at 8 threads).
fn multi_cas_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_acquire");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for via_htm in [false, true] {
        let label = if via_htm {
            "htm_multi_cas"
        } else {
            "per_lock_cas"
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let threads = 8;
                let txs = (Benchmark::Genome.default_txs() as f64 * BENCH_SCALE) as usize;
                let mut w = Benchmark::Genome.instantiate(threads, txs);
                let blocks = w.num_blocks();
                let mut cfg = SeerConfig::plus_core_locks();
                cfg.htm_lock_acquisition = via_htm;
                let mut sched = Seer::new(cfg, threads, blocks);
                let m = run(
                    &mut w,
                    &mut sched,
                    &DriverConfig::paper_machine(threads, 21),
                );
                black_box(m.speedup())
            });
        });
    }
    group.finish();
}

/// Retry-hint ablation: RTM retrying capacity aborts (the paper's policy)
/// vs giving up immediately (Intel's guidance), on the capacity-bound yada
/// model.
fn capacity_retry_ablation(c: &mut Criterion) {
    use seer_baselines::Rtm;
    let mut group = c.benchmark_group("capacity_retry");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for respect_hint in [false, true] {
        let label = if respect_hint {
            "give_up"
        } else {
            "retry_anyway"
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let threads = 8;
                let txs = (Benchmark::Yada.default_txs() as f64 * BENCH_SCALE) as usize;
                let mut w = Benchmark::Yada.instantiate(threads, txs.max(20));
                let mut sched = if respect_hint {
                    Rtm::respecting_retry_hint(5)
                } else {
                    Rtm::new(5)
                };
                let m = run(
                    &mut w,
                    &mut sched,
                    &DriverConfig::paper_machine(threads, 77),
                );
                black_box(m.speedup())
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = event_queue_throughput, multi_cas_ablation, capacity_retry_ablation
}
criterion_main!(benches);

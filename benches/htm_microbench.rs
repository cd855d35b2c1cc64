//! Microbenchmarks of the HTM model's hot paths and the
//! conflict-resolution ablation (DESIGN.md §5, item 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seer_htm::{AccessKind, HtmConfig, HtmMachine};
use seer_sim::{SimRng, Topology};
use std::hint::black_box;

/// `access_into` with 1, 4 and 8 CPUs in flight. CPU 0 reads a batch of
/// fresh lines and commits, while the other CPUs hold disjoint 32-line
/// footprints: with one line directory for all CPUs, the conflict check
/// is one probe whatever the number in flight.
fn access_into_in_flight(c: &mut Criterion) {
    let mut group = c.benchmark_group("htm_access_into");
    for cpus in [1usize, 4, 8] {
        group.bench_function(BenchmarkId::from_parameter(cpus), |b| {
            let mut m = HtmMachine::new(Topology::new(8, 1), HtmConfig::default());
            let mut rng = SimRng::new(1);
            let (mut squeezed, mut victims) = (Vec::new(), Vec::new());
            for t in 1..cpus {
                m.begin_into(t, &mut squeezed);
                for _ in 0..32 {
                    // Disjoint footprints: the probe pays full cost but
                    // never aborts anyone.
                    let line = (t as u64) << 20 | rng.below(1 << 16);
                    m.access_into(t, line, AccessKind::Read, &mut victims);
                }
            }
            let mut next = 0u64;
            b.iter(|| {
                m.begin_into(0, &mut squeezed);
                for _ in 0..64 {
                    next += 1;
                    m.access_into(0, black_box(1 << 30 | next), AccessKind::Read, &mut victims);
                }
                m.commit(0);
                black_box(victims.len())
            });
        });
    }
    group.finish();
}

/// Full begin-access-commit cycles: the machine's end-to-end throughput.
fn tx_lifecycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("htm_lifecycle");
    for footprint in [8u64, 64, 256] {
        group.bench_function(BenchmarkId::from_parameter(footprint), |b| {
            let mut m = HtmMachine::new(Topology::haswell_e3(), HtmConfig::default());
            let (mut squeezed, mut victims) = (Vec::new(), Vec::new());
            b.iter(|| {
                m.begin_into(0, &mut squeezed);
                for i in 0..footprint {
                    m.access_into(0, i * 3, AccessKind::Write, &mut victims);
                }
                m.commit(0);
            });
        });
    }
    group.finish();
}

/// End-to-end conflict-resolution ablation (DESIGN.md §6 item 1):
/// requester-wins (TSX) vs requester-aborts on a conflict-heavy model.
fn conflict_policy_ablation(c: &mut Criterion) {
    use seer_baselines::Rtm;
    use seer_htm::ConflictResolution;
    use seer_runtime::{run, DriverConfig};
    use seer_stamp::Benchmark;

    let mut group = c.benchmark_group("htm_conflict_policy");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for (label, policy) in [
        ("requester_wins", ConflictResolution::RequesterWins),
        ("requester_aborts", ConflictResolution::RequesterAborts),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let threads = 8;
                let mut w = Benchmark::KmeansHigh.instantiate(threads, 40);
                let mut sched = Rtm::default();
                let mut cfg = DriverConfig::paper_machine(threads, 5);
                cfg.htm.conflict_resolution = policy;
                let m = run(&mut w, &mut sched, &cfg);
                black_box(m.speedup())
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = access_into_in_flight, tx_lifecycle, conflict_policy_ablation
}
criterion_main!(benches);

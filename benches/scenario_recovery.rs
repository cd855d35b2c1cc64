//! Scenario-engine cost: a faulted run against its stationary twin.
//!
//! The injector is a handful of extra heap events in a multi-million-event
//! schedule, so a scenario run must cost what the underlying simulation
//! costs — the directive layer's overhead is the difference between these
//! two timings. Before timing, the setup asserts the engine's work
//! conservation structurally: injecting the fault reschedules events but
//! never changes how many transactions commit.

use criterion::{criterion_group, criterion_main, Criterion};
use seer_harness::PolicyKind;
use seer_scenario::{FaultKind, FaultSpec, RunRequest, ScenarioSpec};
use seer_stamp::Benchmark;
use std::hint::black_box;

/// A half-scale stats-amnesia: big enough to cross several inference
/// rounds, small enough to sample repeatedly.
fn faulted() -> ScenarioSpec {
    let mut spec =
        ScenarioSpec::stationary("bench-amnesia", Benchmark::KmeansHigh, 4, 1.0, 100_000);
    spec.faults.push(FaultSpec {
        at: 250_000,
        fault: FaultKind::WipeStats,
    });
    spec
}

fn stationary() -> ScenarioSpec {
    ScenarioSpec::stationary("bench-stationary", Benchmark::KmeansHigh, 4, 1.0, 100_000)
}

fn assert_faults_conserve_work() {
    let with_fault = RunRequest::scenario(&faulted())
        .policy(PolicyKind::Seer)
        .run();
    let without = RunRequest::scenario(&stationary())
        .policy(PolicyKind::Seer)
        .run();
    assert_eq!(
        with_fault.metrics.commits, without.metrics.commits,
        "a fault may reschedule work, never add or drop it"
    );
    assert!(
        with_fault
            .report
            .scores
            .iter()
            .any(|s| s.time_to_reconverge.is_some()),
        "the benched scenario must actually exercise recovery scoring"
    );
}

fn scenario_recovery(c: &mut Criterion) {
    assert_faults_conserve_work();

    let mut group = c.benchmark_group("scenario_recovery");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));

    group.bench_function("stationary", |b| {
        let spec = stationary();
        b.iter(|| {
            black_box(
                RunRequest::scenario(&spec)
                    .policy(PolicyKind::Seer)
                    .run()
                    .metrics
                    .commits,
            )
        });
    });
    group.bench_function("stats-amnesia", |b| {
        let spec = faulted();
        b.iter(|| {
            black_box(
                RunRequest::scenario(&spec)
                    .policy(PolicyKind::Seer)
                    .run()
                    .metrics
                    .commits,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, scenario_recovery);
criterion_main!(benches);

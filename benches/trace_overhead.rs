//! Tracing overhead: `simulate_cold` against its no-op-sink traced twin.
//!
//! Tracing is a sink, not a feature flag, so the disabled cost must be
//! one cached boolean test per emission site — in the noise for a whole
//! simulation. Before timing anything the setup asserts the zero-cost
//! claim structurally: the traced run's event-schedule digest is
//! bit-identical to the untraced run's, and tracing adds no simulation
//! work to the executor (re-executing its plan after traced runs computes
//! nothing).

use criterion::{criterion_group, criterion_main, Criterion};
use seer::{Seer, SeerConfig};
use seer_harness::{Cell, CellExecutor, HarnessConfig, Plan, PolicyKind};
use seer_runtime::{DriverConfig, MemoryTraceSink, NullTraceSink, RunMetrics, TraceSink, Workload};
use seer_scenario::RunRequest;
use seer_stamp::Benchmark;
use std::hint::black_box;

/// Workload scale of the timed cells.
const BENCH_SCALE: f64 = 0.05;

/// A cold cell executor at [`BENCH_SCALE`] with `cell` at seed 0
/// executed: a fresh one per timed run makes every run a cache miss, so
/// the simulation itself is timed.
fn cold_executor(cell: Cell) -> (CellExecutor, Plan) {
    let exec = CellExecutor::new(
        HarnessConfig {
            seeds: 1,
            scale: BENCH_SCALE,
            jobs: 1,
        },
        None,
    );
    let mut plan = Plan::new();
    plan.add_one(cell, 0, BENCH_SCALE);
    assert!(exec.execute(&plan).complete(), "cold cell failed");
    (exec, plan)
}

/// Simulates one cell at seed 0 through a cold executor.
fn simulate_cold(cell: Cell) -> RunMetrics {
    let (exec, _) = cold_executor(cell);
    exec.cached(cell, 0, BENCH_SCALE).expect("executed above")
}

/// The traced twin of [`simulate_cold`]: the same cell, seed and scale
/// with the run's trace streams handed to `sink`.
fn simulate_cold_traced(cell: Cell, sink: &mut dyn TraceSink) -> RunMetrics {
    RunRequest::cell(cell).scale(BENCH_SCALE).traced(sink).run()
}

fn probe_cell() -> Cell {
    Cell {
        benchmark: Benchmark::Ssca2,
        policy: PolicyKind::Seer,
        threads: 8,
    }
}

/// The structural zero-overhead assertions, run once before timing.
fn assert_sink_is_pure_observer(cell: Cell) {
    let (exec, plan) = cold_executor(cell);
    let untraced = exec.cached(cell, 0, BENCH_SCALE).expect("executed above");

    let mut null = NullTraceSink;
    let traced = simulate_cold_traced(cell, &mut null);
    assert_eq!(
        untraced.trace_hash, traced.trace_hash,
        "a no-op sink changed the event schedule"
    );
    assert_eq!(untraced.commits, traced.commits);
    assert_eq!(untraced.makespan, traced.makespan);
    let report = exec.execute(&plan);
    assert_eq!(
        (report.computed, report.memo_hits),
        (0, 1),
        "a traced run added simulation work to the executor"
    );

    // A collecting sink observes the same run too (sink choice can
    // never steer the simulation).
    let mut memory = MemoryTraceSink::new();
    let collected = simulate_cold_traced(cell, &mut memory);
    assert_eq!(untraced.trace_hash, collected.trace_hash);
    assert!(!memory.lifecycle.is_empty());

    // Every inference record must carry one row per atomic block, each
    // with its fitted Gaussian and one verdict per pair. The bench
    // cell is too small to hit a periodic round, so this check runs a
    // contended cell at a scale that does (same shape as the conformance
    // decision snapshot).
    let mut w = Benchmark::KmeansHigh.instantiate(8, 200);
    let blocks = w.num_blocks();
    let mut sched = Seer::new(SeerConfig::full(), 8, blocks);
    let mut rounds = MemoryTraceSink::new();
    seer_runtime::run_traced(
        &mut w,
        &mut sched,
        &DriverConfig::paper_machine(8, 1),
        &mut rounds,
    );
    assert!(
        !rounds.inference.is_empty(),
        "traced run recorded no inference rounds"
    );
    for inf in &rounds.inference {
        assert_eq!(inf.rows.len(), blocks, "inference record is missing rows");
        for row in &inf.rows {
            assert_eq!(
                row.pairs.len(),
                blocks,
                "row {} is missing pair verdicts",
                row.x
            );
            assert!(row.sigma2 >= 0.0);
        }
    }
}

fn trace_overhead(c: &mut Criterion) {
    let cell = probe_cell();
    assert_sink_is_pure_observer(cell);

    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.bench_function("simulate_cold", |b| {
        b.iter(|| black_box(simulate_cold(cell).makespan));
    });
    group.bench_function("simulate_cold_noop_sink", |b| {
        b.iter(|| {
            let mut sink = NullTraceSink;
            black_box(simulate_cold_traced(cell, &mut sink).makespan)
        });
    });
    group.bench_function("simulate_cold_memory_sink", |b| {
        b.iter(|| {
            let mut sink = MemoryTraceSink::new();
            black_box(simulate_cold_traced(cell, &mut sink).makespan)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = trace_overhead
}
criterion_main!(benches);

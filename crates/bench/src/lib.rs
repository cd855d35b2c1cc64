//! # seer-bench — Criterion benchmarks
//!
//! One bench group per paper artefact (the *timed* complement of `seer
//! experiment`, which prints the actual tables/figures), plus
//! microbenchmarks of the hot paths and the ablation benches called out in
//! `DESIGN.md` §5:
//!
//! * `fig3_speedups` — one simulated run per (benchmark, Figure 3 policy),
//!   plus the whole Figure 3 plan through the executor at 1 and 4 jobs;
//! * `table3_modes`, `fig4_overhead`, `fig5_ablation` — the experiment
//!   kernels behind the corresponding experiments;
//! * `htm_microbench` — conflict-detection and line-set hot paths;
//! * `inference_microbench` — Alg. 5 lock-scheme computation and Gaussian
//!   percentile math;
//! * `ablations` — conflict-resolution policy, multi-CAS lock acquisition,
//!   and statistics merge period.
//!
//! The simulation benches go through the same [`CellExecutor`] surface
//! `seer experiment` uses, with a **fresh executor per iteration** so every
//! timed run is a cache miss — the quantity of interest is the simulation
//! cost, not the (near-zero) cache-hit cost.
//!
//! Run with `cargo bench --workspace`; each bench uses a reduced workload
//! scale so a full sweep stays in the minutes range.

use seer_harness::{Cell, CellExecutor, HarnessConfig};
use seer_runtime::{RunMetrics, TraceSink};
use seer_scenario::RunRequest;

pub mod harness;

/// Workload scale factor shared by the simulation benches.
pub const BENCH_SCALE: f64 = 0.05;

/// Seeds used by benches (a single seed: Criterion already repeats).
pub const BENCH_SEED: u64 = 0xBE7C;

/// A cold cell executor at the shared bench scale.
pub fn bench_executor(jobs: usize) -> CellExecutor {
    CellExecutor::new(HarnessConfig {
        seeds: 1,
        scale: BENCH_SCALE,
        jobs,
    })
}

/// Simulates one cell at seed 0 through a cold executor (always a cache
/// miss: the timed quantity is the simulation itself).
pub fn simulate_cold(cell: Cell) -> RunMetrics {
    bench_executor(1).metrics(cell, 0)
}

/// The traced twin of [`simulate_cold`]: the same cell, seed and scale
/// with the run's trace streams handed to `sink`. With a
/// `NullTraceSink` this must cost nothing beyond one cached boolean per
/// emission site — the `trace_overhead` bench pins that.
pub fn simulate_cold_traced(cell: Cell, sink: &mut dyn TraceSink) -> RunMetrics {
    RunRequest::cell(cell).scale(BENCH_SCALE).traced(sink).run()
}

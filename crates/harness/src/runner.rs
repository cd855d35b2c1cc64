//! Experiment runner: one configuration → seed-averaged measurements.

use seer_runtime::{run, run_traced, DriverConfig, RunMetrics, TraceSink, TxMode, Workload};
use seer_stamp::Benchmark;

use crate::policy::PolicyKind;

/// A single experiment cell: benchmark × policy × thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Workload model.
    pub benchmark: Benchmark,
    /// Scheduler variant.
    pub policy: PolicyKind,
    /// Simulated threads.
    pub threads: usize,
}

/// Harness-wide settings.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Seeds to average over (the paper averages 20 hardware runs; the
    /// simulator's only run-to-run variance is the seed).
    pub seeds: u64,
    /// Scale factor on each benchmark's default transactions-per-thread
    /// (1.0 = the full default; smaller for quick benches).
    pub scale: f64,
    /// OS threads the cell executor fans work out across (1 = serial;
    /// results are bit-identical either way).
    pub jobs: usize,
}

/// Environment-free defaults: 3 seeds, full scale, serial. The
/// `SEER_SEEDS` / `SEER_SCALE` / `SEER_JOBS` overrides are read by
/// [`crate::env_config`] alone.
impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            seeds: 3,
            scale: 1.0,
            jobs: 1,
        }
    }
}

/// Derives the driver RNG seed for harness seed `seed`.
///
/// Every harness-seeded simulation derives its driver seed through this
/// one function: each cell run through `execute_cell` (the executor,
/// `RunRequest::cell`, the CLI, the conformance replay matrix), the
/// benchmark package's cells, and `seer inspect`. So the committed
/// golden trace hashes
/// (`crates/conformance/tests/fixtures/trace_hashes.txt`) pin its output:
/// changing the constants is a fixture re-bless, not a tweak. The
/// multiplier spreads consecutive harness seeds across the driver RNG's
/// seed space; the offset keeps seed 0 away from the all-zeros state.
///
/// Three extra experiments seed the driver directly instead, because
/// they need the scheduler's post-run state rather than a cell's
/// metrics: [`crate::inference_accuracy`] (driver seed 7),
/// [`crate::fine_grained`] (`0xF17E + seed * 4099`) and
/// [`crate::convergence`] (31).
pub const fn sim_seed(seed: u64) -> u64 {
    0x5EE2 + seed * 7919
}

/// Seed-averaged measurements of one experiment cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellResult {
    /// Mean speedup over the sequential execution.
    pub speedup: f64,
    /// Mean aborts per commit.
    pub abort_ratio: f64,
    /// Mean fraction of commits per transaction mode (Table 3 order).
    pub mode_fractions: [f64; 6],
    /// Mean fraction of commits that used the SGL fall-back.
    pub fallback_fraction: f64,
    /// Mean of the per-run median fraction of available transaction locks
    /// taken by lock-acquiring transactions (§5.2), if any run acquired.
    pub median_tx_lock_fraction: Option<f64>,
}

impl CellResult {
    /// Averages raw per-seed metrics into one `CellResult` (the reduction
    /// behind `CellExecutor::cell`).
    ///
    /// # Panics
    /// If `runs` is empty.
    pub fn average(runs: &[RunMetrics]) -> Self {
        assert!(!runs.is_empty(), "averaging zero runs");
        let mut acc = CellResult::default();
        let mut lock_fraction_acc = 0.0;
        let mut lock_fraction_n = 0u64;
        for m in runs {
            acc.speedup += m.speedup();
            acc.abort_ratio += m.abort_ratio();
            acc.fallback_fraction += m.fallback_fraction();
            for (i, mode) in TxMode::ALL.iter().enumerate() {
                acc.mode_fractions[i] += m.modes.fraction(*mode);
            }
            if let Some(f) = m.median_tx_lock_fraction() {
                lock_fraction_acc += f;
                lock_fraction_n += 1;
            }
        }
        let n = runs.len() as f64;
        acc.speedup /= n;
        acc.abort_ratio /= n;
        acc.fallback_fraction /= n;
        for f in &mut acc.mode_fractions {
            *f /= n;
        }
        acc.median_tx_lock_fraction = if lock_fraction_n > 0 {
            Some(lock_fraction_acc / lock_fraction_n as f64)
        } else {
            None
        };
        acc
    }
}

/// The one cell-execution primitive: runs one seed of `cell` with `txs`
/// transactions per thread and returns the raw metrics. With a sink, the
/// run's lifecycle and inference streams are collected into it; per the
/// sink-not-flag discipline the returned metrics (and in particular
/// `trace_hash`) are bit-identical either way.
///
/// This is the mechanism under `RunRequest::cell` (the workspace's
/// public entry-point builder, in `seer-scenario`); harness-internal
/// code and `CellExecutor::execute` call it directly.
///
/// # Panics
/// If the run trips the driver's event safety valve (`truncated`) — the
/// simulated-cycle budget. The message names the cell and seed, and the
/// panic propagates out of whatever ran it, `CellExecutor::execute`
/// included, and ends the command.
pub fn execute_cell(
    cell: Cell,
    seed: u64,
    txs: usize,
    sink: Option<&mut dyn TraceSink>,
) -> RunMetrics {
    let mut workload = cell.benchmark.instantiate(cell.threads, txs);
    let blocks = workload.num_blocks();
    let mut sched = cell.policy.build(cell.threads, blocks);
    let cfg = DriverConfig::paper_machine(cell.threads, sim_seed(seed));
    let metrics = match sink {
        None => run(&mut workload, sched.as_mut(), &cfg),
        Some(sink) => run_traced(&mut workload, sched.as_mut(), &cfg, sink),
    };
    assert!(!metrics.truncated, "run truncated: {cell:?} seed {seed}");
    metrics
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            debug_assert!(v > 0.0, "geometric mean of non-positive value {v}");
            v.max(f64::MIN_POSITIVE).ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sim_seed_is_pinned() {
        // The golden trace hashes depend on this derivation; see the
        // conformance replay suite.
        assert_eq!(sim_seed(0), 0x5EE2);
        assert_eq!(sim_seed(1) - sim_seed(0), 7919);
    }
}

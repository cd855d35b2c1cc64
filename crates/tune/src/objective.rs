//! Objectives: scalar scores folded from results the execution stack
//! already produces.
//!
//! An objective contributes runs to a batch plan (`plan`) and later
//! folds the cached results into a score (`score`). The split is what
//! makes searches reproducible at any fan-out width: drivers batch all
//! planning before any execution, and scoring reads memoized values, so
//! neither depends on completion order.

use seer_harness::{geometric_mean, Cell, Plan, PolicyKind};
use seer_scenario::{RecoveryReport, ScenarioPlan};
use seer_stamp::Benchmark;

use crate::exec::TuneExecutor;

/// The pinned throughput workload: two STAMP benchmarks with opposite
/// contention profiles, at the conformance replay thread count and a
/// scale small enough that a 64-config halving search stays
/// interactive.
pub const PINNED_BENCHMARKS: [Benchmark; 2] = [Benchmark::KmeansHigh, Benchmark::Ssca2];
/// Thread count of every pinned cell.
pub const PINNED_THREADS: usize = 4;
/// Scale factor of every pinned cell. Matches the interactive sweep
/// scale — and, critically, keeps every run long enough (1400–2400
/// transactions at 4 threads) for the sampled update windows to fire
/// several times; much below this the scheduler never re-trains and
/// every configuration scores identically.
pub const PINNED_SCALE: f64 = 0.5;
/// The pinned robustness scenarios: a phase change and a churn burst,
/// scored at seed 0 (robustness is fidelity-independent; see
/// [`RobustnessObjective`]).
pub const PINNED_SCENARIOS: [&str; 2] = ["phase-flip", "churn-storm"];

/// A scalar figure of merit over one candidate policy. Higher is
/// better. Implementations must be pure folds over the executor's
/// cached results — no I/O, no randomness, no extra runs.
pub trait Objective {
    /// Stable name, recorded in the leaderboard.
    fn name(&self) -> &'static str;

    /// Adds every run this objective needs for `policy` at `fidelity`
    /// (the number of harness seeds, `0..fidelity`) to the batch plans.
    fn plan(
        &self,
        policy: PolicyKind,
        fidelity: u64,
        cells: &mut Plan,
        scenarios: &mut ScenarioPlan,
    );

    /// Folds the (now cached) results into a score; `None` when any
    /// needed run failed, which ranks the trial below every scored one.
    fn score(&self, policy: PolicyKind, fidelity: u64, exec: &TuneExecutor) -> Option<f64>;
}

/// Parses an objective name from the CLI (`--objective`).
pub fn objective_by_name(name: &str) -> Option<Box<dyn Objective>> {
    match name {
        "throughput" => Some(Box::new(ThroughputObjective)),
        "robustness" => Some(Box::new(RobustnessObjective)),
        "combined" => Some(Box::new(CombinedObjective)),
        _ => None,
    }
}

fn pinned_cell(benchmark: Benchmark, policy: PolicyKind) -> Cell {
    Cell {
        benchmark,
        policy,
        threads: PINNED_THREADS,
    }
}

/// Mean stationary throughput over the pinned cell plan: the geometric
/// mean across benchmarks of the seed-averaged commit rate
/// (commits per kilocycle — scale-free across benchmarks thanks to the
/// geometric mean).
pub struct ThroughputObjective;

impl Objective for ThroughputObjective {
    fn name(&self) -> &'static str {
        "throughput"
    }

    fn plan(&self, policy: PolicyKind, fidelity: u64, cells: &mut Plan, _: &mut ScenarioPlan) {
        for benchmark in PINNED_BENCHMARKS {
            for seed in 0..fidelity {
                cells.add_one(pinned_cell(benchmark, policy), seed, PINNED_SCALE);
            }
        }
    }

    fn score(&self, policy: PolicyKind, fidelity: u64, exec: &TuneExecutor) -> Option<f64> {
        let mut per_benchmark = Vec::with_capacity(PINNED_BENCHMARKS.len());
        for benchmark in PINNED_BENCHMARKS {
            let mut rates = Vec::with_capacity(fidelity as usize);
            for seed in 0..fidelity {
                let m = exec
                    .cells()
                    .cached(pinned_cell(benchmark, policy), seed, PINNED_SCALE)?;
                rates.push(m.commits as f64 / m.makespan as f64 * 1_000.0);
            }
            per_benchmark.push(rates.iter().sum::<f64>() / rates.len() as f64);
        }
        Some(geometric_mean(&per_benchmark))
    }
}

/// Folds one [`RecoveryReport`] into `[0, 1]`: half for re-converging
/// after every disturbance, half for shallow regressions while
/// disturbed.
pub fn recovery_score(report: &RecoveryReport) -> f64 {
    if report.scores.is_empty() {
        return if report.recovered { 1.0 } else { 0.0 };
    }
    let n = report.scores.len() as f64;
    let reconverged = report
        .scores
        .iter()
        .filter(|s| s.reconverged_at.is_some())
        .count() as f64
        / n;
    let mean_depth = report
        .scores
        .iter()
        .map(|s| s.regression_depth.clamp(0.0, 1.0))
        .sum::<f64>()
        / n;
    0.5 * reconverged + 0.5 * (1.0 - mean_depth)
}

/// Robustness under disturbance: the mean [`recovery_score`] over the
/// pinned scenarios. Always evaluated at scenario seed 0 — recovery
/// scoring is already an aggregate over a run's disturbance windows, so
/// the fidelity axis (which the halving driver doubles) is spent on the
/// throughput cells instead.
pub struct RobustnessObjective;

impl Objective for RobustnessObjective {
    fn name(&self) -> &'static str {
        "robustness"
    }

    fn plan(&self, policy: PolicyKind, _fidelity: u64, _: &mut Plan, scenarios: &mut ScenarioPlan) {
        for name in PINNED_SCENARIOS {
            scenarios.add(name, policy, 0);
        }
    }

    fn score(&self, policy: PolicyKind, _fidelity: u64, exec: &TuneExecutor) -> Option<f64> {
        let mut total = 0.0;
        for name in PINNED_SCENARIOS {
            let outcome = exec.scenarios().cached(name, policy, 0)?;
            total += recovery_score(&outcome.report);
        }
        Some(total / PINNED_SCENARIOS.len() as f64)
    }
}

/// The headline objective: stationary throughput scaled by robustness —
/// `throughput × (1 + robustness)` — so a configuration is rewarded for
/// re-converging after disturbances, not just for peak speed.
pub struct CombinedObjective;

impl Objective for CombinedObjective {
    fn name(&self) -> &'static str {
        "combined"
    }

    fn plan(
        &self,
        policy: PolicyKind,
        fidelity: u64,
        cells: &mut Plan,
        scenarios: &mut ScenarioPlan,
    ) {
        ThroughputObjective.plan(policy, fidelity, cells, scenarios);
        RobustnessObjective.plan(policy, fidelity, cells, scenarios);
    }

    fn score(&self, policy: PolicyKind, fidelity: u64, exec: &TuneExecutor) -> Option<f64> {
        let throughput = ThroughputObjective.score(policy, fidelity, exec)?;
        let robustness = RobustnessObjective.score(policy, fidelity, exec)?;
        Some(throughput * (1.0 + robustness))
    }
}

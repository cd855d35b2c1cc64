//! `TuneExecutor`: trial evaluation routed through the generic
//! `Executor<K, V>` stack.
//!
//! A trial is nothing but a keyed batch of cells and scenarios — the
//! tuned policy travels inside [`CellKey`]/[`ScenarioKey`] as its
//! textual spec — so every mechanism the execution stack already has
//! applies verbatim: memoization, the content-addressed disk store
//! (`--store`/`--resume`) and supervised local fan-out (`--jobs`),
//! with no new key kind (a stored spec parses back into a policy with
//! `FromStr`).

use std::path::Path;
use std::time::Duration;

use seer_harness::{CellExecutor, CellKey, ExecReport, HarnessConfig, Plan, Store};
use seer_scenario::{ScenarioExecutor, ScenarioKey, ScenarioPlan};

/// One run a trial needs: a cell or a scenario. The key of the summed
/// [`ExecReport`] a batch returns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TuneKey {
    /// A harness cell.
    Cell(CellKey),
    /// A built-in scenario run.
    Scenario(ScenarioKey),
}

impl std::fmt::Display for TuneKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneKey::Cell(key) => key.fmt(f),
            TuneKey::Scenario(key) => key.fmt(f),
        }
    }
}

/// The two-executor facade every objective evaluates through.
pub struct TuneExecutor {
    cells: CellExecutor,
    scenarios: ScenarioExecutor,
}

impl TuneExecutor {
    /// An executor fanning uncached work across `jobs` OS threads. With a
    /// `store_dir`, results persist into (and warm-start from) the store
    /// rooted there: cells and scenarios share the directory — shard
    /// files are namespaced by key kind, exactly as when a sweep and a
    /// scenario run share `--store`. With a `deadline`, a run still
    /// simulating after that much wall-clock time fails as timed out.
    pub fn new(jobs: usize, store_dir: Option<&Path>, deadline: Option<Duration>) -> Self {
        let cfg = HarnessConfig {
            jobs,
            ..HarnessConfig::default()
        };
        Self {
            cells: CellExecutor::new(cfg, store_dir.map(Store::open), deadline),
            scenarios: ScenarioExecutor::new(jobs, store_dir.map(Store::open), deadline),
        }
    }

    /// Runs every not-yet-cached item of both plans and returns their
    /// summed coverage report.
    pub fn execute(&self, cells: &Plan, scenarios: &ScenarioPlan) -> ExecReport<TuneKey> {
        let mut report = ExecReport::default();
        if !cells.is_empty() {
            report.absorb(self.cells.execute(cells).map_keys(TuneKey::Cell));
        }
        if !scenarios.is_empty() {
            report.absorb(
                self.scenarios
                    .execute(scenarios)
                    .map_keys(TuneKey::Scenario),
            );
        }
        report
    }

    /// The cell half (objectives read results back through this).
    pub fn cells(&self) -> &CellExecutor {
        &self.cells
    }

    /// The scenario half.
    pub fn scenarios(&self) -> &ScenarioExecutor {
        &self.scenarios
    }
}

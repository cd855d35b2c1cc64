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

use seer_harness::{CellExecutor, HarnessConfig, Plan, Store};
use seer_harness::{CellKey, FailedItem};
use seer_scenario::{ScenarioExecutor, ScenarioKey, ScenarioPlan};

/// Aggregated coverage counters for one evaluation batch (cells and
/// scenarios summed), in the same vocabulary as a sweep's report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TuneExecReport {
    /// Unique runs planned across both executors.
    pub planned: usize,
    /// Served from the in-memory memo cache.
    pub memo_hits: u64,
    /// Served from the disk store.
    pub disk_hits: u64,
    /// Simulated locally.
    pub computed: u64,
    /// Runs the supervisor gave up on (the coverage gap).
    pub failed: u64,
}

impl TuneExecReport {
    /// Folds another batch's counters into this one.
    pub fn absorb(&mut self, other: &TuneExecReport) {
        self.planned += other.planned;
        self.memo_hits += other.memo_hits;
        self.disk_hits += other.disk_hits;
        self.computed += other.computed;
        self.failed += other.failed;
    }
}

/// The two-executor facade every objective evaluates through.
pub struct TuneExecutor {
    cells: CellExecutor,
    scenarios: ScenarioExecutor,
}

impl TuneExecutor {
    /// An executor fanning uncached work across `jobs` OS threads, with
    /// no disk store.
    pub fn new(jobs: usize) -> Self {
        Self::with_store_dir(jobs, None::<&Path>)
    }

    /// Like [`new`](Self::new), but persisting into (and warm-starting
    /// from) the store rooted at `dir`. Cells and scenarios share the
    /// directory — shard files are namespaced by key kind, exactly as
    /// when a sweep and a scenario run share `--store`.
    pub fn with_store_dir(jobs: usize, dir: Option<impl AsRef<Path>>) -> Self {
        let cfg = HarnessConfig {
            jobs,
            ..HarnessConfig::default()
        };
        let supervisor = seer_harness::SupervisorConfig::from_env();
        let (cell_store, scenario_store) = match dir {
            Some(dir) => (
                Some(Store::open(dir.as_ref())),
                Some(Store::open(dir.as_ref())),
            ),
            None => (None, None),
        };
        Self {
            cells: CellExecutor::with_options(cfg, cell_store, supervisor),
            scenarios: ScenarioExecutor::with_options(jobs, scenario_store, supervisor),
        }
    }

    /// Runs every not-yet-cached item of both plans and returns the
    /// summed coverage counters plus the individual failures.
    pub fn execute(
        &self,
        cells: &Plan,
        scenarios: &ScenarioPlan,
    ) -> (TuneExecReport, Vec<String>) {
        let mut report = TuneExecReport::default();
        let mut failures = Vec::new();
        if !cells.is_empty() {
            let r = self.cells.execute(cells);
            report.planned += r.planned;
            report.memo_hits += r.memo_hits;
            report.disk_hits += r.disk_hits;
            report.computed += r.computed;
            report.failed += r.failed.len() as u64;
            failures.extend(r.failed.iter().map(describe_cell_failure));
        }
        if !scenarios.is_empty() {
            let r = self.scenarios.execute(scenarios);
            report.planned += r.planned;
            report.memo_hits += r.memo_hits;
            report.disk_hits += r.disk_hits;
            report.computed += r.computed;
            report.failed += r.failed.len() as u64;
            failures.extend(r.failed.iter().map(describe_scenario_failure));
        }
        (report, failures)
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

fn describe_cell_failure(f: &FailedItem<CellKey>) -> String {
    format!(
        "{}/{}/t{}/s{}: {} (after {} attempt(s))",
        f.key.cell().benchmark.name(),
        f.key.cell().policy.spec(),
        f.key.cell().threads,
        f.key.seed,
        f.failure,
        f.attempts
    )
}

fn describe_scenario_failure(f: &FailedItem<ScenarioKey>) -> String {
    format!(
        "{}/{}/s{}: {} (after {} attempt(s))",
        f.key.scenario,
        f.key.policy.spec(),
        f.key.seed,
        f.failure,
        f.attempts
    )
}

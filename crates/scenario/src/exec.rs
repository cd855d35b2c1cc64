//! The parallel, memoizing, store-backed scenario executor.
//!
//! A thin instantiation of the workspace-generic
//! [`Executor`](seer_store::Executor) (DESIGN.md §9/§13) at scenario
//! granularity: work items are `(scenario, policy, seed)` coordinates,
//! deduplicated at plan-build time, memoized for the executor's lifetime,
//! persisted to an attached [`Store`], and supervised (retries, deadline,
//! panic isolation) exactly like harness cells. Every scenario run is an
//! independent deterministic simulation, so parallel and store-warmed
//! execution are bit-identical to a serial cold run — the conformance
//! suite's scenario fixtures pin exactly that.

use seer_harness::PolicyKind;
use seer_store::{ExecReport, Executor, Store, SupervisorConfig};

use crate::library;
use crate::request::RunRequest;
use crate::runner::ScenarioOutcome;

/// The memoization key: every coordinate a scenario outcome depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScenarioKey {
    /// Built-in scenario name (resolved through [`library::builtin`]).
    pub scenario: String,
    /// Scheduler policy.
    pub policy: PolicyKind,
    /// Harness seed.
    pub seed: u64,
}

/// A deduplicated set of scenario work items.
#[derive(Debug, Default, Clone)]
pub struct ScenarioPlan {
    inner: seer_store::Plan<ScenarioKey>,
}

impl ScenarioPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one work item; returns `true` if it was new.
    pub fn add(&mut self, scenario: &str, policy: PolicyKind, seed: u64) -> bool {
        self.inner.add(ScenarioKey {
            scenario: scenario.to_string(),
            policy,
            seed,
        })
    }

    /// Adds the full `scenarios × policies × seeds` grid.
    pub fn add_grid(&mut self, scenarios: &[&str], policies: &[PolicyKind], seeds: u64) {
        for &scenario in scenarios {
            for &policy in policies {
                for seed in 0..seeds {
                    self.add(scenario, policy, seed);
                }
            }
        }
    }

    /// Number of unique work items.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the plan holds no items.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The unique items, in insertion order.
    pub fn items(&self) -> &[ScenarioKey] {
        self.inner.items()
    }

    /// The underlying generic plan.
    pub fn as_generic(&self) -> &seer_store::Plan<ScenarioKey> {
        &self.inner
    }
}

/// Parallel, memoizing executor over the built-in scenario library.
#[derive(Debug)]
pub struct ScenarioExecutor {
    inner: Executor<ScenarioKey, ScenarioOutcome>,
}

impl ScenarioExecutor {
    /// An executor fanning uncached work out across `jobs` OS threads,
    /// supervised per the `SEER_RETRIES`/`SEER_CELL_TIMEOUT_MS`
    /// environment.
    pub fn new(jobs: usize) -> Self {
        Self::with_options(jobs, None, SupervisorConfig::from_env())
    }

    /// Like [`new`](Self::new), but warm-started from (and persisting
    /// into) `store`.
    pub fn with_store(jobs: usize, store: Store) -> Self {
        Self::with_options(jobs, Some(store), SupervisorConfig::from_env())
    }

    /// Full-control constructor: explicit store attachment and
    /// supervision policy.
    pub fn with_options(
        jobs: usize,
        store: Option<Store>,
        supervisor: SupervisorConfig,
    ) -> Self {
        let mut inner = Executor::new(jobs, |key: ScenarioKey| {
            let spec = library::builtin(&key.scenario)
                .unwrap_or_else(|| panic!("unknown scenario {:?}", key.scenario));
            RunRequest::scenario(&spec)
                .policy(key.policy)
                .seed(key.seed)
                .run()
        })
        .with_supervisor(supervisor);
        if let Some(store) = store {
            inner = inner.with_store(store);
        }
        Self { inner }
    }

    /// Runs every not-yet-cached item of `plan`, reporting coverage.
    ///
    /// Unknown scenario names, panicking runs, and deadline overruns
    /// degrade into [`FailedItem`](seer_store::FailedItem)s in the
    /// report rather than aborting the process.
    pub fn execute(&self, plan: &ScenarioPlan) -> ExecReport<ScenarioKey> {
        self.inner.execute(plan.as_generic())
    }

    /// The outcome of one work item, running it (unsupervised) on a
    /// cache miss.
    ///
    /// # Panics
    /// If the item names a scenario the library does not contain (the
    /// CLI validates names before building plans).
    pub fn outcome(&self, scenario: &str, policy: PolicyKind, seed: u64) -> ScenarioOutcome {
        self.inner.get(ScenarioKey {
            scenario: scenario.to_string(),
            policy,
            seed,
        })
    }

    /// The memoized outcome of one item, without computing anything: the
    /// non-panicking read used to assemble partial reports around failed
    /// items.
    pub fn cached(&self, scenario: &str, policy: PolicyKind, seed: u64) -> Option<ScenarioOutcome> {
        self.inner.cached(&ScenarioKey {
            scenario: scenario.to_string(),
            policy,
            seed,
        })
    }

    /// The attached result store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.inner.store()
    }

    /// Memo-cache reads served without touching disk or simulating.
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Scenario simulations actually performed.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Results loaded from the attached store instead of simulated.
    pub fn disk_hits(&self) -> u64 {
        self.inner.disk_hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_deduplicates() {
        let mut plan = ScenarioPlan::new();
        assert!(plan.is_empty());
        assert!(plan.add("stats-amnesia", PolicyKind::Seer, 0));
        assert!(!plan.add("stats-amnesia", PolicyKind::Seer, 0));
        plan.add_grid(&["stats-amnesia", "churn-storm"], &[PolicyKind::Seer], 2);
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn executor_memoizes_and_parallel_equals_serial() {
        let mut plan = ScenarioPlan::new();
        plan.add_grid(&["churn-storm"], &[PolicyKind::Rtm, PolicyKind::Seer], 1);
        let serial = ScenarioExecutor::new(1);
        let report = serial.execute(&plan);
        assert!(report.complete(), "no failures expected: {report:?}");
        assert_eq!(serial.misses(), 2);
        serial.execute(&plan);
        assert_eq!(serial.misses(), 2, "re-execution hits the cache");
        assert_eq!(serial.hits(), 2);
        let parallel = ScenarioExecutor::new(4);
        parallel.execute(&plan);
        for key in plan.items() {
            let a = serial.outcome(&key.scenario, key.policy, key.seed);
            let b = parallel.outcome(&key.scenario, key.policy, key.seed);
            assert_eq!(a.metrics.trace_hash, b.metrics.trace_hash, "{key:?}");
            assert_eq!(a.report, b.report, "{key:?}");
        }
    }

    #[test]
    fn unknown_scenario_degrades_into_a_failed_item() {
        let mut plan = ScenarioPlan::new();
        plan.add("no-such-scenario", PolicyKind::Rtm, 0);
        let exec =
            ScenarioExecutor::with_options(1, None, SupervisorConfig::fail_fast());
        let report = exec.execute(&plan);
        assert!(!report.complete());
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].key.scenario, "no-such-scenario");
        assert_eq!(exec.misses(), 0, "failed runs are not counted as computed");
    }
}

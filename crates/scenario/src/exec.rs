//! The parallel, memoizing scenario executor.
//!
//! A thin instantiation of the workspace-generic [`Executor`] (DESIGN.md
//! §9/§13) at scenario granularity: work items are `(scenario, policy,
//! seed)` coordinates, deduplicated at plan-build time, memoized for the
//! executor's lifetime, and supervised (panic isolation and the optional deadline) exactly like
//! harness cells. Every scenario run is an independent deterministic
//! simulation, so parallel execution is bit-identical to a serial run —
//! the conformance suite's scenario fixtures pin exactly that.

use seer_harness::PolicyKind;
use std::time::Duration;

use seer_store::{ExecReport, Executor};

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

/// `scenario/policy/sS`: how failure lists name a scenario run.
impl std::fmt::Display for ScenarioKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/s{}", self.scenario, self.policy.spec(), self.seed)
    }
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

    /// The unique items, in insertion order.
    pub fn items(&self) -> &[ScenarioKey] {
        self.inner.items()
    }
}

/// Parallel, memoizing executor over the built-in scenario library.
#[derive(Debug)]
pub struct ScenarioExecutor {
    inner: Executor<ScenarioKey, ScenarioOutcome>,
}

impl ScenarioExecutor {
    /// An executor fanning uncached work out across `jobs` OS threads.
    /// With a `deadline`, a run still simulating after that much
    /// wall-clock time fails as timed out.
    pub fn new(jobs: usize, deadline: Option<Duration>) -> Self {
        let inner = Executor::new(jobs, deadline, |key: ScenarioKey| {
            let spec = library::builtin(&key.scenario)
                .unwrap_or_else(|| panic!("unknown scenario {:?}", key.scenario));
            RunRequest::scenario(&spec)
                .policy(key.policy)
                .seed(key.seed)
                .run()
        });
        Self { inner }
    }

    /// Runs every not-yet-cached item of `plan`, reporting coverage.
    ///
    /// Unknown scenario names, panicking runs, and deadline overruns
    /// degrade into [`FailedItem`](seer_store::FailedItem)s in the
    /// report rather than aborting the process.
    pub fn execute(&self, plan: &ScenarioPlan) -> ExecReport<ScenarioKey> {
        self.inner.execute(&plan.inner)
    }

    /// The outcome of one item an earlier [`execute`](Self::execute)
    /// resolved, without computing anything; `None` for an item that
    /// failed or was never planned.
    pub fn cached(&self, scenario: &str, policy: PolicyKind, seed: u64) -> Option<ScenarioOutcome> {
        self.inner.cached(&ScenarioKey {
            scenario: scenario.to_string(),
            policy,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_deduplicates() {
        let mut plan = ScenarioPlan::new();
        assert!(plan.items().is_empty());
        assert!(plan.add("stats-amnesia", PolicyKind::Seer, 0));
        assert!(!plan.add("stats-amnesia", PolicyKind::Seer, 0));
        plan.add_grid(&["stats-amnesia", "churn-storm"], &[PolicyKind::Seer], 2);
        assert_eq!(plan.items().len(), 4);
    }

    #[test]
    fn executor_memoizes_and_parallel_equals_serial() {
        let mut plan = ScenarioPlan::new();
        plan.add_grid(&["churn-storm"], &[PolicyKind::Rtm, PolicyKind::Seer], 1);
        let serial = ScenarioExecutor::new(1, None);
        let report = serial.execute(&plan);
        assert!(report.complete(), "no failures expected: {report:?}");
        assert_eq!(report.computed, 2);
        let report = serial.execute(&plan);
        assert_eq!(
            (report.computed, report.memo_hits),
            (0, 2),
            "re-execution hits the cache"
        );
        let parallel = ScenarioExecutor::new(4, None);
        parallel.execute(&plan);
        for key in plan.items() {
            let a = serial.cached(&key.scenario, key.policy, key.seed).unwrap();
            let b = parallel
                .cached(&key.scenario, key.policy, key.seed)
                .unwrap();
            assert_eq!(a.metrics.trace_hash, b.metrics.trace_hash, "{key:?}");
            assert_eq!(a.report, b.report, "{key:?}");
        }
    }

    #[test]
    fn unknown_scenario_degrades_into_a_failed_item() {
        let mut plan = ScenarioPlan::new();
        plan.add("no-such-scenario", PolicyKind::Rtm, 0);
        let exec = ScenarioExecutor::new(1, None);
        let report = exec.execute(&plan);
        assert!(!report.complete());
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].key.scenario, "no-such-scenario");
        assert_eq!(
            report.computed, 0,
            "failed runs are not counted as computed"
        );
        assert_eq!(
            report.failed[0].to_string(),
            "no-such-scenario/rtm/s0: panicked: unknown scenario \"no-such-scenario\""
        );
    }
}

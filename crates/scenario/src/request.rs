//! The one front door for running simulations: [`RunRequest`].
//!
//! The workspace used to grow a new `run_*` free function every time an
//! experiment needed one more knob (`run_once`, `run_once_traced`,
//! `run_scenario`, `run_scenario_traced`, `run_scenario_with`). This
//! module collapses them into a single builder with two shapes:
//!
//! ```no_run
//! use seer_scenario::RunRequest;
//! use seer_harness::{Cell, PolicyKind};
//! use seer_stamp::Benchmark;
//!
//! // A harness cell — one (benchmark, policy, threads, seed, scale) run.
//! let metrics = RunRequest::cell(Cell {
//!     benchmark: Benchmark::Ssca2,
//!     policy: PolicyKind::Seer,
//!     threads: 4,
//! })
//! .scale(0.08)
//! .seed(1)
//! .run();
//!
//! // A scenario — one (spec, policy, seed) run with a recovery report.
//! let spec = seer_scenario::library::builtin("phase-flip").unwrap();
//! let outcome = RunRequest::scenario(&spec).policy(PolicyKind::Rtm).run();
//! # let _ = (metrics, outcome);
//! ```
//!
//! Both builders bottom out in the two execution primitives
//! (`seer_harness::execute_cell`, [`crate::runner::execute_scenario`]);
//! the builder adds nothing to the schedule, so traced and untraced runs
//! of the same coordinates, direct or through an executor, are
//! bit-identical.

use seer_harness::{execute_cell, Cell, PolicyKind};
use seer_runtime::{MemoryTraceSink, RunMetrics, Scheduler, TraceSink, Workload};

use crate::runner::{execute_scenario, ScenarioOutcome};
use crate::spec::ScenarioSpec;
use crate::workload::ScenarioWorkload;

/// Entry point for every simulation run in the workspace.
///
/// `RunRequest` itself is never instantiated; its associated functions
/// hand out the two builder shapes: [`RunRequest::cell`] for harness
/// cells and [`RunRequest::scenario`] for scenario runs.
#[derive(Debug)]
pub struct RunRequest;

impl RunRequest {
    /// A harness-cell run: `seed` 0, `scale` 1.0, untraced by default.
    pub fn cell(cell: Cell) -> CellRun<'static> {
        CellRun {
            cell,
            seed: 0,
            scale: 1.0,
            sink: None,
        }
    }

    /// A scenario run: Seer policy, seed 0, untraced by default.
    pub fn scenario(spec: &ScenarioSpec) -> ScenarioRun<'_> {
        ScenarioRun {
            spec,
            driver: ScenarioDriver::Policy(PolicyKind::Seer),
            seed: 0,
            sink: None,
        }
    }
}

/// Builder for one harness-cell run (see [`RunRequest::cell`]).
pub struct CellRun<'r> {
    cell: Cell,
    seed: u64,
    scale: f64,
    sink: Option<&'r mut dyn TraceSink>,
}

impl<'r> CellRun<'r> {
    /// Harness seed (derives the simulator seed via `sim_seed`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Workload scale factor (1.0 = the paper's full-size inputs).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Streams lifecycle/inference events into `sink`. Per the
    /// sink-not-flag discipline this never changes the schedule.
    pub fn traced<'s>(self, sink: &'s mut dyn TraceSink) -> CellRun<'s> {
        CellRun {
            cell: self.cell,
            seed: self.seed,
            scale: self.scale,
            sink: Some(sink),
        }
    }

    /// Runs the cell to completion.
    ///
    /// # Panics
    /// If the run trips the driver's event safety valve (`truncated`).
    pub fn run(self) -> RunMetrics {
        execute_cell(self.cell, self.seed, self.scale, self.sink)
    }
}

impl std::fmt::Debug for CellRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellRun")
            .field("cell", &self.cell)
            .field("seed", &self.seed)
            .field("scale", &self.scale)
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

enum ScenarioDriver<'r> {
    Policy(PolicyKind),
    Scheduler {
        sched: &'r mut dyn Scheduler,
        label: String,
    },
}

/// Builder for one scenario run (see [`RunRequest::scenario`]).
pub struct ScenarioRun<'r> {
    spec: &'r ScenarioSpec,
    driver: ScenarioDriver<'r>,
    seed: u64,
    sink: Option<&'r mut MemoryTraceSink>,
}

impl<'r> ScenarioRun<'r> {
    /// Runs under `policy`'s scheduler (default: Seer).
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.driver = ScenarioDriver::Policy(policy);
        self
    }

    /// Runs under an explicit scheduler instance, reported as `label`.
    /// Overrides any [`policy`](Self::policy) choice.
    pub fn scheduler(mut self, sched: &'r mut dyn Scheduler, label: &str) -> Self {
        self.driver = ScenarioDriver::Scheduler {
            sched,
            label: label.to_string(),
        };
        self
    }

    /// Harness seed (derives the simulator seed via `sim_seed`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Collects the run's lifecycle and inference streams into `sink`
    /// instead of a throwaway internal one. The outcome is bit-identical
    /// either way.
    pub fn traced(mut self, sink: &'r mut MemoryTraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Runs the scenario to completion and scores its recovery.
    ///
    /// # Panics
    /// If the spec fails validation, the run trips the event safety
    /// valve, or windowed conservation laws are violated.
    pub fn run(self) -> ScenarioOutcome {
        match self.driver {
            ScenarioDriver::Scheduler { sched, label } => {
                execute_scenario(self.spec, sched, &label, self.seed, self.sink)
            }
            ScenarioDriver::Policy(policy) => {
                let blocks = ScenarioWorkload::new(self.spec).num_blocks();
                let mut sched = policy.build(self.spec.threads, blocks);
                execute_scenario(
                    self.spec,
                    sched.as_mut(),
                    &policy.name(),
                    self.seed,
                    self.sink,
                )
            }
        }
    }
}

impl std::fmt::Debug for ScenarioRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let driver = match &self.driver {
            ScenarioDriver::Policy(p) => p.name(),
            ScenarioDriver::Scheduler { label, .. } => label.into(),
        };
        f.debug_struct("ScenarioRun")
            .field("scenario", &self.spec.name)
            .field("driver", &driver)
            .field("seed", &self.seed)
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use seer_harness::{CellExecutor, HarnessConfig, Plan};
    use seer_runtime::NullTraceSink;

    #[test]
    fn traced_and_untraced_cell_runs_are_bit_identical() {
        let cell = Cell {
            benchmark: seer_stamp::Benchmark::KmeansLow,
            policy: PolicyKind::Seer,
            threads: 4,
        };
        let untraced = RunRequest::cell(cell).scale(0.1).run();
        let same = |m: &RunMetrics| {
            assert_eq!(untraced.trace_hash, m.trace_hash);
            assert_eq!(untraced.commits, m.commits);
            assert_eq!(untraced.makespan, m.makespan);
        };
        let mut sink = MemoryTraceSink::new();
        same(&RunRequest::cell(cell).scale(0.1).traced(&mut sink).run());
        assert!(!sink.lifecycle.is_empty(), "the sink actually collected");
        same(
            &RunRequest::cell(cell)
                .scale(0.1)
                .traced(&mut NullTraceSink)
                .run(),
        );

        // The executor computes the same value, and traced runs add no
        // work to it: re-executing its plan is all memo hits.
        let exec = CellExecutor::new(
            HarnessConfig {
                seeds: 1,
                scale: 0.1,
                jobs: 1,
            },
            None,
        );
        let mut plan = Plan::new();
        plan.add_one(cell, 0, 0.1);
        assert!(exec.execute(&plan).complete());
        same(&exec.cached(cell, 0, 0.1).expect("executed above"));
        RunRequest::cell(cell)
            .scale(0.1)
            .traced(&mut MemoryTraceSink::new())
            .run();
        let report = exec.execute(&plan);
        assert_eq!((report.computed, report.memo_hits), (0, 1));
    }

    #[test]
    fn scenario_default_policy_is_seer() {
        let spec = library::builtin("phase-flip").unwrap();
        let implicit = RunRequest::scenario(&spec).run();
        let explicit = RunRequest::scenario(&spec).policy(PolicyKind::Seer).run();
        assert_eq!(implicit.report.policy, "seer");
        assert_eq!(implicit.metrics.trace_hash, explicit.metrics.trace_hash);
    }

    #[test]
    fn explicit_scheduler_matches_policy_built_one() {
        let spec = library::builtin("churn-storm").unwrap();
        let by_policy = RunRequest::scenario(&spec).policy(PolicyKind::Rtm).run();
        let blocks = ScenarioWorkload::new(&spec).num_blocks();
        let mut sched = PolicyKind::Rtm.build(spec.threads, blocks);
        let by_instance = RunRequest::scenario(&spec)
            .scheduler(sched.as_mut(), "rtm")
            .run();
        assert_eq!(by_policy.metrics.trace_hash, by_instance.metrics.trace_hash);
        assert_eq!(by_policy.report, by_instance.report);
    }
}

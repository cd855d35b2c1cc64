//! # seer-scenario — non-stationary workloads, fault injection, and
//! re-convergence scoring
//!
//! The paper evaluates Seer on stationary workloads; its central claim,
//! though, is *adaptivity* — the probabilistic profile, the inference
//! rounds and the hill climber exist to track a moving target. This crate
//! makes that claim testable (DESIGN.md §11):
//!
//! * [`ScenarioSpec`] — a pure-data script: timed workload phases
//!   (benchmark mix, hot-set skew, think-time scaling), a thread-churn
//!   schedule, and fault injections (stats wipe, inference delay,
//!   threshold kick, lock-holder stall, capacity shrink). Parses from and
//!   serializes to the workspace's dependency-free JSON.
//! * [`ScenarioWorkload`] — composes the phases' STAMP models into one
//!   `Workload`, pinning retries and commits to the issuing model.
//! * [`RunRequest`] — the workspace's one entry point for runs: compiles
//!   the spec to the driver's timed-directive script and runs it through
//!   the ordinary traced driver; every disturbance is a scheduled discrete
//!   event, so runs are bit-identical on replay and under any `--jobs`
//!   fan-out.
//! * [`RecoveryReport`] — scores the scheduler's reaction on windowed
//!   metrics and the inference trace: regression depth, time to
//!   re-converge, pair-set stabilization, steady-state delta.
//! * [`ScenarioExecutor`] — the memoizing, parallel, store-backed
//!   executor over the built-in [`library`] (phase-flip, churn-storm,
//!   stats-amnesia, threshold-kick, capacity-cliff, hot-set-drift).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exec;
pub mod library;
pub mod persist;
pub mod report;
pub mod request;
pub mod runner;
pub mod spec;
pub mod workload;

pub use exec::{ScenarioExecutor, ScenarioKey, ScenarioPlan};
pub use persist::{report_from_json, validate_reports};
pub use report::{RecoveryReport, RecoveryScore, RECOVERY_FRACTION};
pub use request::{CellRun, RunRequest, ScenarioRun};
pub use runner::{execute_scenario, ScenarioOutcome};
pub use spec::{
    benchmark_from_name, ChurnSpec, FaultKind, FaultSpec, PhaseSpec, ScenarioSpec,
};
pub use workload::ScenarioWorkload;

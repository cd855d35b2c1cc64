//! Scenario execution: spec → driver run → recovery report.
//!
//! A scenario run is the ordinary traced harness run plus a compiled
//! directive script: the workload is a [`ScenarioWorkload`], the driver
//! config is the paper machine with `cfg.script = spec.compile()`, and the
//! seed goes through the harness's `sim_seed` derivation like every other
//! simulation in the workspace. Tracing is always collected through a
//! `MemoryTraceSink` — per the sink-not-flag discipline this cannot change
//! the event schedule, so the reported `trace_hash` is identical to an
//! untraced run of the same coordinates.
//!
//! [`execute_scenario`] is the one primitive (the scenario counterpart of
//! the harness's `execute_cell`); the public entry point is the
//! [`RunRequest`](crate::request::RunRequest) builder.

use seer_harness::sim_seed;
use seer_runtime::{
    run_traced, DriverConfig, MemoryTraceSink, RunMetrics, Scheduler, WindowedMetrics,
};

use crate::report::RecoveryReport;
use crate::spec::ScenarioSpec;
use crate::workload::ScenarioWorkload;

/// Everything one scenario run produces.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Whole-run aggregate metrics (including `trace_hash`).
    pub metrics: RunMetrics,
    /// The windowed slice of the run the report was scored on.
    pub windows: WindowedMetrics,
    /// The recovery verdict.
    pub report: RecoveryReport,
}

/// The one scenario-execution primitive: runs `spec` under an explicit
/// scheduler, labelled `policy_label` in the report. With a sink, the
/// run's lifecycle and inference streams remain available to the caller
/// afterwards; per the sink-not-flag discipline the outcome is
/// bit-identical either way.
///
/// This is the mechanism under `RunRequest::scenario` (the workspace's
/// public entry-point builder); the executor's run function calls it
/// directly.
///
/// # Panics
/// If the spec fails [`ScenarioSpec::validate`], the run trips the event
/// safety valve, or the windowed conservation laws are violated. Under a
/// supervised executor those panics are caught and reported as a failed
/// item, not a process abort.
pub fn execute_scenario(
    spec: &ScenarioSpec,
    sched: &mut dyn Scheduler,
    policy_label: &str,
    seed: u64,
    sink: Option<&mut MemoryTraceSink>,
) -> ScenarioOutcome {
    let mut local = MemoryTraceSink::new();
    let sink = sink.unwrap_or(&mut local);
    if let Err(e) = spec.validate() {
        panic!("invalid scenario {:?}: {e}", spec.name);
    }
    let mut workload = ScenarioWorkload::new(spec);
    let mut cfg = DriverConfig::paper_machine(spec.threads, sim_seed(seed));
    cfg.script = spec.compile();
    let metrics = run_traced(&mut workload, sched, &cfg, sink);
    assert!(
        !metrics.truncated,
        "scenario run truncated: {} / {policy_label} seed {seed}",
        spec.name
    );
    let windows = WindowedMetrics::from_lifecycle(&sink.lifecycle, spec.window, metrics.makespan);
    // Satellite conservation check: the windows must partition the run's
    // aggregate counters exactly, churn and faults included.
    let violations = windows.check_partition(&metrics);
    assert!(
        violations.is_empty(),
        "windowed conservation laws violated in {}: {violations:?}",
        spec.name
    );
    let report = RecoveryReport::build(
        spec,
        policy_label,
        seed,
        &metrics,
        &windows,
        &sink.inference,
    );
    ScenarioOutcome {
        metrics,
        windows,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::request::RunRequest;
    use crate::spec::{FaultKind, FaultSpec};
    use seer_harness::{PolicyKind, ToJson};
    use seer_stamp::Benchmark;

    fn run_seer(spec: &ScenarioSpec, policy: PolicyKind, seed: u64) -> ScenarioOutcome {
        RunRequest::scenario(spec).policy(policy).seed(seed).run()
    }

    #[test]
    fn stationary_scenario_matches_plain_harness_run() {
        // A no-script scenario over the base benchmark must produce the
        // same commit total and trace hash as the plain harness runner for
        // the same (benchmark, policy, threads, seed, scale) coordinates.
        let spec = ScenarioSpec::stationary("plain", Benchmark::Ssca2, 4, 0.08, 100_000);
        let outcome = run_seer(&spec, PolicyKind::Rtm, 0);
        let plain = RunRequest::cell(seer_harness::Cell {
            benchmark: Benchmark::Ssca2,
            policy: PolicyKind::Rtm,
            threads: 4,
        })
        .scale(0.08)
        .run();
        assert_eq!(outcome.metrics.commits, plain.commits);
        assert_eq!(outcome.metrics.trace_hash, plain.trace_hash);
        assert_eq!(outcome.metrics.makespan, plain.makespan);
    }

    #[test]
    fn scenario_replays_bit_identically() {
        let spec = library::builtin("stats-amnesia").unwrap();
        let a = run_seer(&spec, PolicyKind::Seer, 0);
        let b = run_seer(&spec, PolicyKind::Seer, 0);
        assert_eq!(a.metrics.trace_hash, b.metrics.trace_hash);
        assert_eq!(a.metrics.commits, b.metrics.commits);
        assert_eq!(a.report, b.report);
        assert_eq!(
            a.report.to_json().to_string_compact(),
            b.report.to_json().to_string_compact()
        );
    }

    #[test]
    fn faults_change_the_schedule_but_not_the_work() {
        // A driver fault under RTM and a scheduler fault under Seer.
        for (fault, policy) in [
            (
                FaultKind::StallLockHolder { cycles: 120_000 },
                PolicyKind::Rtm,
            ),
            (FaultKind::WipeStats, PolicyKind::Seer),
        ] {
            let mut faulty = ScenarioSpec::stationary("f", Benchmark::KmeansHigh, 4, 0.3, 100_000);
            faulty.faults.push(FaultSpec { at: 150_000, fault });
            let clean = ScenarioSpec::stationary("f", Benchmark::KmeansHigh, 4, 0.3, 100_000);
            let with_fault = run_seer(&faulty, policy, 1);
            let without = run_seer(&clean, policy, 1);
            assert_eq!(
                with_fault.metrics.commits, without.metrics.commits,
                "faults perturb timing, never the amount of work"
            );
            assert_ne!(
                with_fault.metrics.trace_hash, without.metrics.trace_hash,
                "the fault must actually reschedule events"
            );
        }
    }

    #[test]
    fn seer_reports_pair_stabilization_and_baselines_do_not() {
        let spec = library::builtin("stats-amnesia").unwrap();
        let seer = run_seer(&spec, PolicyKind::Seer, 0);
        let rtm = run_seer(&spec, PolicyKind::Rtm, 0);
        assert!(
            seer.report
                .scores
                .iter()
                .any(|s| s.pairs_stable_at.is_some()),
            "Seer emits inference rounds: {:?}",
            seer.report.scores
        );
        assert!(
            rtm.report
                .scores
                .iter()
                .all(|s| s.pairs_stable_at.is_none()),
            "RTM has no inference stream"
        );
    }
}

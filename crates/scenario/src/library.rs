//! The built-in scenario library.
//!
//! Six canonical disturbance patterns, each isolating one thing the
//! scheduler must survive. All run 4 threads on the paper machine with a
//! 100k-cycle scoring window; disturbances land once the run is warm
//! (after the first few inference rounds) and leave enough tail for
//! re-convergence to be observable.

use crate::spec::{ChurnSpec, FaultKind, FaultSpec, PhaseSpec, ScenarioSpec};
use seer_stamp::Benchmark;

/// Scoring window width shared by every built-in.
const WINDOW: u64 = 100_000;

/// Names of the built-in scenarios, in presentation order.
pub const BUILTIN_NAMES: [&str; 6] = [
    "phase-flip",
    "churn-storm",
    "stats-amnesia",
    "threshold-kick",
    "capacity-cliff",
    "hot-set-drift",
];

/// Looks up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    let spec = match name {
        "phase-flip" => phase_flip(),
        "churn-storm" => churn_storm(),
        "stats-amnesia" => stats_amnesia(),
        "threshold-kick" => threshold_kick(),
        "capacity-cliff" => capacity_cliff(),
        "hot-set-drift" => hot_set_drift(),
        _ => return None,
    };
    Some(spec)
}

/// Every built-in scenario, in [`BUILTIN_NAMES`] order.
pub fn all() -> Vec<ScenarioSpec> {
    BUILTIN_NAMES
        .iter()
        .map(|n| builtin(n).expect("names enumerate the library"))
        .collect()
}

/// Benchmark-mix flip: the profile Seer learned for the high-contention
/// regime is stale for the low-contention one (same block count,
/// different conflict topology), so over-serialization must be unlearned.
fn phase_flip() -> ScenarioSpec {
    let mut spec = ScenarioSpec::stationary("phase-flip", Benchmark::KmeansHigh, 4, 2.0, WINDOW);
    spec.phases.push(PhaseSpec {
        at: 400_000,
        benchmark: Some(Benchmark::KmeansLow),
        skew: 1.0,
        think_scale: 1.0,
    });
    spec
}

/// Staggered park of three of the four threads, then staggered return:
/// the statistics gathered at full parallelism describe a machine that
/// briefly no longer exists.
fn churn_storm() -> ScenarioSpec {
    let mut spec = ScenarioSpec::stationary("churn-storm", Benchmark::Ssca2, 4, 1.5, WINDOW);
    for (thread, park_at, unpark_at) in [
        (1, 200_000, 380_000),
        (2, 260_000, 440_000),
        (3, 320_000, 500_000),
    ] {
        spec.churn.push(ChurnSpec {
            at: park_at,
            thread,
            park: true,
        });
        spec.churn.push(ChurnSpec {
            at: unpark_at,
            thread,
            park: false,
        });
    }
    spec
}

/// Statistics wipe mid-run: the learned conflict profile vanishes and
/// must be re-accumulated from scratch.
fn stats_amnesia() -> ScenarioSpec {
    let mut spec = ScenarioSpec::stationary("stats-amnesia", Benchmark::KmeansHigh, 4, 2.0, WINDOW);
    spec.faults.push(FaultSpec {
        at: 500_000,
        fault: FaultKind::WipeStats,
    });
    spec
}

/// Adversarial threshold perturbation: Th1 is kicked near 1 (serialize
/// almost nothing) and the hill climber has to walk back.
fn threshold_kick() -> ScenarioSpec {
    let mut spec =
        ScenarioSpec::stationary("threshold-kick", Benchmark::VacationHigh, 4, 2.0, WINDOW);
    spec.faults.push(FaultSpec {
        at: 300_000,
        fault: FaultKind::KickThresholds {
            th1: 0.99,
            th2: 0.99,
        },
    });
    spec
}

/// Capacity-pressure burst: the HTM budgets collapse for 200k cycles,
/// shoving transactions onto the fall-back path, then restore.
fn capacity_cliff() -> ScenarioSpec {
    let mut spec = ScenarioSpec::stationary("capacity-cliff", Benchmark::Genome, 4, 2.0, WINDOW);
    spec.faults.push(FaultSpec {
        at: 300_000,
        fault: FaultKind::CapacityShrink {
            ways: Some(1),
            read_lines: Some(4),
            restore_after: 200_000,
        },
    });
    spec
}

/// Hot-set drift: the shared working set collapses to 5% of its span and
/// later relaxes, moving the conflict probabilities without changing the
/// block structure.
fn hot_set_drift() -> ScenarioSpec {
    let mut spec = ScenarioSpec::stationary("hot-set-drift", Benchmark::Intruder, 4, 3.0, WINDOW);
    spec.phases.push(PhaseSpec {
        at: 250_000,
        benchmark: None,
        skew: 0.05,
        think_scale: 1.0,
    });
    spec.phases.push(PhaseSpec {
        at: 500_000,
        benchmark: None,
        skew: 1.0,
        think_scale: 1.0,
    });
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_validates_and_compiles() {
        for name in BUILTIN_NAMES {
            let spec = builtin(name).expect(name);
            assert_eq!(spec.name, name);
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                !spec.compile().is_empty(),
                "{name}: a built-in must script at least one directive"
            );
            assert!(
                !spec.disturbances().is_empty(),
                "{name}: a built-in must have scorable disturbances"
            );
        }
        assert!(builtin("no-such-scenario").is_none());
        assert_eq!(all().len(), BUILTIN_NAMES.len());
    }

    #[test]
    fn builtins_round_trip_through_json() {
        for spec in all() {
            let text = spec.to_json().to_string_pretty();
            let back = ScenarioSpec::parse(&text).unwrap();
            assert_eq!(back, spec, "{}", spec.name);
        }
    }
}

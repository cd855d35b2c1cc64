//! Invariant-checking sweep over real workloads.
//!
//! In every build with debug assertions (any `cargo test`), every event of
//! every run below also passes through the driver's invariant checker —
//! lock-order canonicality, epoch monotonicity, SGL subscription
//! consistency, running conservation — turning the sweep into a structural
//! audit of the whole scheduler zoo.

use seer_harness::{Cell, PolicyKind};
use seer_scenario::RunRequest;
use seer_stamp::Benchmark;

#[test]
fn conservation_laws_hold_across_the_policy_zoo() {
    let cells = [
        (Benchmark::Genome, PolicyKind::Seer),
        (Benchmark::KmeansHigh, PolicyKind::Scm),
        (Benchmark::VacationHigh, PolicyKind::Ats),
        (Benchmark::Ssca2, PolicyKind::Hle),
        (Benchmark::Intruder, PolicyKind::Rtm),
        (Benchmark::Yada, PolicyKind::SeerPlusHillClimbing),
    ];
    for (benchmark, policy) in cells {
        for threads in [2, 8] {
            let m = RunRequest::cell(Cell {
                benchmark,
                policy,
                threads,
            })
            .scale(0.1)
            .run();
            let violations = m.check_conservation();
            assert!(
                violations.is_empty(),
                "{benchmark:?}/{policy:?}/{threads}t: {violations:#?}"
            );
        }
    }
}

/// Proof that the checker is live in debug builds: a causality violation
/// in the event queue must panic instead of being clamped.
#[cfg(debug_assertions)]
#[test]
fn causality_violations_panic_in_debug_builds() {
    let result = std::panic::catch_unwind(|| {
        let mut q = seer_sim::EventQueue::new();
        q.push(100, ());
        q.pop();
        q.push(5, ()); // before the watermark: must panic, not clamp
    });
    assert!(
        result.is_err(),
        "checker failed to fire on a causality violation"
    );
}

//! Deterministic-replay harness.
//!
//! A simulation run is a pure function of `(workload, scheduler, config,
//! seed)`; nothing in the stack may read wall-clock time, addresses,
//! iteration order of unordered containers, or any other ambient state.
//! [`replay_cell`] enforces that by executing a cell twice and comparing
//! the event-schedule digest ([`seer_sim::EventQueue::trace_hash`])
//! bit-for-bit, along with every aggregate metric. The committed fixture
//! file `tests/fixtures/trace_hashes.txt` then pins the digests across
//! sessions, so an accidental change to event ordering — a reordered
//! `push`, a different tie-break, an extra RNG draw — fails the suite
//! instead of silently shifting every figure.
//!
//! Cells are driver-seeded through [`seer_harness::sim_seed`] — the same
//! derivation the harness executor and CLI use — so the fixtures
//! pin the whole stack's seeding, not a conformance-local copy of it.

use seer_harness::Cell;
use seer_runtime::RunMetrics;
use seer_scenario::RunRequest;

/// Runs `cell` twice with the same seed and asserts bit-identical traces
/// and metrics, returning the (verified) metrics of the first run.
///
/// # Panics
/// If the two runs diverge in any observable way.
pub fn replay_cell(cell: Cell, seed: u64, scale: f64) -> RunMetrics {
    let first = RunRequest::cell(cell).seed(seed).scale(scale).run();
    let second = RunRequest::cell(cell).seed(seed).scale(scale).run();
    assert_eq!(
        first.trace_hash, second.trace_hash,
        "replay diverged for {cell:?} seed {seed}: the event schedules differ"
    );
    assert_eq!(
        first.commits, second.commits,
        "commits diverged for {cell:?}"
    );
    assert_eq!(
        first.makespan, second.makespan,
        "makespan diverged for {cell:?}"
    );
    assert_eq!(
        first.aborts.total(),
        second.aborts.total(),
        "aborts diverged for {cell:?}"
    );
    assert_eq!(first.modes, second.modes, "mode mix diverged for {cell:?}");
    assert_eq!(
        first.fallbacks, second.fallbacks,
        "fallbacks diverged for {cell:?}"
    );
    assert_eq!(
        first.wait_cycles, second.wait_cycles,
        "wait accounting diverged for {cell:?}"
    );
    first
}

/// One line of the golden fixture file for `cell`. The policy key is its
/// spec in camel case (`seer-plus-tx-locks` → `SeerPlusTxLocks`), the
/// form the committed fixtures have always used.
pub fn fixture_line(cell: Cell, seed: u64, trace_hash: u64) -> String {
    let policy: String = cell
        .policy
        .spec()
        .split('-')
        .map(|word| {
            let mut chars = word.chars();
            chars.next().map_or(String::new(), |first| {
                first.to_ascii_uppercase().to_string() + chars.as_str()
            })
        })
        .collect();
    format!(
        "{:?} {policy} t{} s{seed} {trace_hash:#018x}",
        cell.benchmark, cell.threads
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_harness::PolicyKind;
    use seer_stamp::Benchmark;

    #[test]
    fn fixture_line_format_is_stable() {
        let cell = Cell {
            benchmark: Benchmark::Genome,
            policy: PolicyKind::Rtm,
            threads: 4,
        };
        assert_eq!(
            fixture_line(cell, 0, 0xdead_beef),
            "Genome Rtm t4 s0 0x00000000deadbeef"
        );
        let cell = Cell {
            policy: PolicyKind::SeerPlusHillClimbing,
            ..cell
        };
        assert_eq!(
            fixture_line(cell, 1, 1),
            "Genome SeerPlusHillClimbing t4 s1 0x0000000000000001"
        );
    }
}

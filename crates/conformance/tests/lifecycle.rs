//! Lifecycle-trace conservation: on every cell of the replay matrix, the
//! traced event stream must reconcile *exactly* with the run's aggregate
//! metrics — and the traced run's event-schedule digest must still match
//! the committed golden fixtures (tracing is a sink, not a flag).
//!
//! Together with the replay suite (which runs the same matrix untraced)
//! this pins the acceptance criterion that all golden trace hashes pass
//! unchanged with tracing enabled **and** disabled, with no re-bless.

use seer_harness::{env_config, parallel_map, Cell, PolicyKind};
use seer_runtime::trace::AbortCause;
use seer_runtime::{MemoryTraceSink, TxMode};
use seer_scenario::RunRequest;
use seer_stamp::Benchmark;

const SCALE: f64 = 0.08;
const THREADS: usize = 4;
const FIXTURES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trace_hashes.txt"
);

fn matrix() -> Vec<Cell> {
    Benchmark::STAMP
        .into_iter()
        .flat_map(|benchmark| {
            PolicyKind::ALL.into_iter().map(move |policy| Cell {
                benchmark,
                policy,
                threads: THREADS,
            })
        })
        .collect()
}

#[test]
fn lifecycle_events_reconcile_with_metrics_on_every_replay_cell() {
    let cells = matrix();
    let lines = parallel_map(&cells, env_config().jobs, |&cell| {
        let mut sink = MemoryTraceSink::new();
        let m = RunRequest::cell(cell).scale(SCALE).traced(&mut sink).run();
        let violations = m.check_conservation();
        assert!(violations.is_empty(), "{cell:?}: {violations:#?}");

        // Every hardware attempt begins exactly one trace span.
        assert_eq!(
            sink.count_kind("attempt-begin") as u64,
            m.htm_attempts,
            "{cell:?}: attempt-begin count != htm_attempts"
        );
        // Aborts reconcile per cause, not just in total.
        assert_eq!(
            sink.count_abort_cause(AbortCause::Conflict) as u64,
            m.aborts.conflict,
            "{cell:?}: conflict aborts"
        );
        assert_eq!(
            sink.count_abort_cause(AbortCause::Capacity) as u64,
            m.aborts.capacity,
            "{cell:?}: capacity aborts"
        );
        assert_eq!(
            sink.count_abort_cause(AbortCause::Explicit) as u64,
            m.aborts.explicit,
            "{cell:?}: explicit aborts"
        );
        assert_eq!(
            sink.count_abort_cause(AbortCause::Other) as u64,
            m.aborts.other,
            "{cell:?}: other aborts"
        );
        // Commits split exactly into hardware and fall-back commits.
        let sgl_commits = m.modes.get(TxMode::SglFallback);
        assert_eq!(
            sink.count_kind("htm-commit") as u64,
            m.commits - sgl_commits,
            "{cell:?}: htm-commit count"
        );
        assert_eq!(
            sink.count_kind("fallback-commit") as u64,
            sgl_commits,
            "{cell:?}: fallback-commit count"
        );
        assert_eq!(
            sink.count_kind("sgl-fallback") as u64,
            m.fallbacks,
            "{cell:?}: sgl-fallback count != fallbacks"
        );
        // Every attempt span closes: begins = aborts + hardware commits.
        assert_eq!(
            sink.count_kind("attempt-begin"),
            sink.count_kind("abort") + sink.count_kind("htm-commit"),
            "{cell:?}: unclosed attempt spans"
        );

        seer_conformance::replay::fixture_line(cell, 0, m.trace_hash)
    });

    // The *traced* runs must reproduce the committed (untraced) golden
    // hashes line for line — the sink observed the run without touching it.
    let computed = lines.join("\n") + "\n";
    let golden = std::fs::read_to_string(FIXTURES)
        .expect("missing tests/fixtures/trace_hashes.txt — bless the replay suite first");
    assert!(
        golden == computed,
        "traced runs shifted the event schedule; tracing must be a pure observer:\n{}",
        golden
            .lines()
            .zip(computed.lines())
            .filter(|(g, c)| g != c)
            .map(|(g, c)| format!("  golden: {g}\n  traced: {c}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

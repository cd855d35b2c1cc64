//! Golden snapshot of one cell's decision-provenance JSONL.
//!
//! One STAMP × Seer cell's inference stream (every round's probabilities,
//! Gaussian fit, cutoff and verdicts) serializes to JSONL and must be
//! byte-identical to the committed fixture — across repeated runs, and
//! across executor fan-out widths (the `SEER_JOBS=1` vs `SEER_JOBS=4`
//! regimes): tracing shares the run's determinism guarantee, so parallel
//! collection may not perturb a single byte.
//!
//! To regenerate after an *intentional* change to inference, the trace
//! schema, or JSON serialization:
//!
//! ```text
//! SEER_BLESS=1 cargo test -p seer-conformance --test decision_snapshot
//! ```
//!
//! then commit the updated `tests/fixtures/decision_trace.jsonl` with the
//! change that moved it.

use seer_harness::{parallel_map, trace_jsonl, Cell, PolicyKind};
use seer_runtime::MemoryTraceSink;
use seer_scenario::RunRequest;
use seer_stamp::Benchmark;

// Larger than the replay matrix's 0.08: the snapshot cell must run long
// enough to complete inference rounds, or there is nothing to pin.
const SCALE: f64 = 0.75;
const SEED: u64 = 0;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/decision_trace.jsonl"
);

fn cell() -> Cell {
    Cell {
        benchmark: Benchmark::KmeansHigh,
        policy: PolicyKind::Seer,
        threads: 4,
    }
}

/// The cell's decision JSONL: the inference stream alone (lifecycle
/// events are covered by the replay hashes and the lifecycle suite; the
/// snapshot pins the decision provenance).
fn decision_jsonl() -> String {
    let mut sink = MemoryTraceSink::new();
    RunRequest::cell(cell())
        .seed(SEED)
        .scale(SCALE)
        .traced(&mut sink)
        .run();
    let decisions = MemoryTraceSink {
        lifecycle: Vec::new(),
        inference: sink.inference,
    };
    trace_jsonl(&decisions)
}

#[test]
fn decision_jsonl_is_byte_stable_and_matches_fixture() {
    let computed = decision_jsonl();
    assert!(
        !computed.is_empty(),
        "the snapshot cell recorded no inference rounds — it cannot pin anything"
    );

    // Byte-stable across runs in the same process.
    assert_eq!(computed, decision_jsonl(), "repeat run changed the JSONL");

    // Byte-stable across fan-out: four concurrent traced runs (the
    // SEER_JOBS=4 regime) against the serial result.
    let parallel = parallel_map(&[0u64, 1, 2, 3], 4, |_| decision_jsonl());
    for (i, p) in parallel.iter().enumerate() {
        assert_eq!(p, &computed, "parallel run {i} diverged from serial JSONL");
    }

    if std::env::var_os("SEER_BLESS").is_some() {
        std::fs::write(FIXTURE, &computed).expect("write decision fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("missing tests/fixtures/decision_trace.jsonl — run with SEER_BLESS=1 to create it");
    assert!(
        golden == computed,
        "decision JSONL drifted from the committed fixture \
         (intentional? re-bless with SEER_BLESS=1); first differing line: {}",
        golden
            .lines()
            .zip(computed.lines())
            .position(|(g, c)| g != c)
            .map(|i| (i + 1).to_string())
            .unwrap_or_else(|| "line counts differ".to_string())
    );
}

//! Replay conformance for the parameterized many-blocks probe
//! (`synth@blocks=N`): the synthetic workload must be as deterministic as
//! the STAMP members — each cell replays bit-identically, and the seed-0/
//! seed-1 trace hashes are pinned by a committed fixture so the incremental
//! inference engine (which is busiest exactly here, at large block counts)
//! cannot drift the schedule unnoticed.
//!
//! To regenerate after an *intentional* schedule change:
//!
//! ```text
//! SEER_BLESS=1 cargo test -p seer-conformance --test synth_replay
//! ```

use seer_conformance::replay::{fixture_line, replay_cell};
use seer_harness::{env_config, parallel_map, Cell, PolicyKind};
use seer_stamp::Benchmark;

const SCALE: f64 = 0.08;
const FIXTURES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/synth_trace_hashes.txt"
);

/// The synth cell under full Seer — the configuration where each
/// inference round does the most work.
const CELL: Cell = Cell {
    benchmark: Benchmark::Synth { blocks: 128 },
    policy: PolicyKind::Seer,
    threads: 4,
};

#[test]
fn synth_cell_replays_bit_identically_across_two_seeds() {
    let seeds = [0u64, 1];
    let lines = parallel_map(&seeds, env_config().jobs, |&seed| {
        let metrics = replay_cell(CELL, seed, SCALE);
        let violations = metrics.check_conservation();
        assert!(violations.is_empty(), "seed {seed}: {violations:#?}");
        assert!(metrics.commits > 0, "seed {seed}: synth cell did no work");
        fixture_line(CELL, seed, metrics.trace_hash)
    });
    let computed = lines.join("\n") + "\n";

    if std::env::var_os("SEER_BLESS").is_some() {
        std::fs::write(FIXTURES, &computed).expect("write fixtures");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURES).expect(
        "missing tests/fixtures/synth_trace_hashes.txt — run with SEER_BLESS=1 to create it",
    );
    assert_eq!(
        golden, computed,
        "synth schedules drifted from the committed fixtures \
         (intentional? re-bless with SEER_BLESS=1)"
    );
}

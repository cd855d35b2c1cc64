//! Deterministic-replay matrix: every (benchmark × policy) cell runs twice
//! per seed and must produce bit-identical event schedules; seed-0 trace
//! hashes are pinned by the committed fixture file.
//!
//! To regenerate the fixtures after an *intentional* change to event
//! ordering (new RNG stream, reordered scheduling, cost-model change):
//!
//! ```text
//! SEER_BLESS=1 cargo test -p seer-conformance --test replay
//! ```
//!
//! then commit the updated `tests/fixtures/trace_hashes.txt` (and
//! `tx_lock_trace_hashes.txt`) together with the change that shifted the
//! schedules, explaining why in the message.

use seer_conformance::replay::{fixture_line, replay_cell};
use seer_harness::{env_config, parallel_map, Cell, PolicyKind};
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
fn every_cell_replays_bit_identically_and_matches_fixtures() {
    // The matrix fans out across SEER_JOBS OS threads (each cell still
    // replays twice, uncached — memoization would defeat the point);
    // parallel_map returns results in matrix order, so the fixture file is
    // byte-identical for any job count.
    let cells = matrix();
    let lines = parallel_map(&cells, env_config().jobs, |&cell| {
        let metrics = replay_cell(cell, 0, SCALE);
        let violations = metrics.check_conservation();
        assert!(violations.is_empty(), "{cell:?}: {violations:#?}");
        fixture_line(cell, 0, metrics.trace_hash)
    });
    let computed = lines.join("\n") + "\n";

    if std::env::var_os("SEER_BLESS").is_some() {
        std::fs::write(FIXTURES, &computed).expect("write fixtures");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURES)
        .expect("missing tests/fixtures/trace_hashes.txt — run with SEER_BLESS=1 to create it");
    let mismatches: Vec<String> = golden
        .lines()
        .zip(computed.lines())
        .filter(|(g, c)| g != c)
        .map(|(g, c)| format!("  golden: {g}\n  actual: {c}"))
        .collect();
    assert!(
        mismatches.is_empty() && golden.lines().count() == computed.lines().count(),
        "event schedules drifted from the committed fixtures \
         (intentional? re-bless with SEER_BLESS=1):\n{}",
        mismatches.join("\n")
    );
}

/// Scale of the 8-thread transaction-lock cells (`--txs 50` for genome).
const TX_LOCK_SCALE: f64 = 0.125;
const TX_LOCK_FIXTURES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/tx_lock_trace_hashes.txt"
);

#[test]
fn eight_thread_seer_takes_multi_lock_rows_and_matches_fixtures() {
    // At 8 threads genome and intruder acquire multi-lock
    // `locksToAcquire` rows, so these hashes pin which locks a thread
    // takes, not just whether it takes any: dropping one lock of a
    // multi-lock row moves both.
    let cells = [Benchmark::Genome, Benchmark::Intruder].map(|benchmark| Cell {
        benchmark,
        policy: PolicyKind::Seer,
        threads: 8,
    });
    let lines = parallel_map(&cells, env_config().jobs, |&cell| {
        let metrics = replay_cell(cell, 0, TX_LOCK_SCALE);
        let violations = metrics.check_conservation();
        assert!(violations.is_empty(), "{cell:?}: {violations:#?}");
        assert!(
            metrics.tx_lock_acquisitions.iter().any(|&n| n > 1),
            "{cell:?} never acquired more than one transaction lock: {:?}",
            metrics.tx_lock_acquisitions
        );
        fixture_line(cell, 0, metrics.trace_hash)
    });
    let computed = lines.join("\n") + "\n";

    if std::env::var_os("SEER_BLESS").is_some() {
        std::fs::write(TX_LOCK_FIXTURES, &computed).expect("write fixtures");
        return;
    }
    let golden = std::fs::read_to_string(TX_LOCK_FIXTURES).expect(
        "missing tests/fixtures/tx_lock_trace_hashes.txt — run with SEER_BLESS=1 to create it",
    );
    assert_eq!(
        golden, computed,
        "8-thread tx-lock schedules drifted from the committed fixtures \
         (intentional? re-bless with SEER_BLESS=1)"
    );
}

#[test]
fn second_seed_replays_on_the_paper_policies() {
    // A second seed over the Figure 3 policies: catches seed-dependent
    // nondeterminism (e.g. state carried across runs) that a single seed
    // cannot.
    let cells: Vec<Cell> = Benchmark::STAMP
        .into_iter()
        .flat_map(|benchmark| {
            PolicyKind::FIGURE3.into_iter().map(move |policy| Cell {
                benchmark,
                policy,
                threads: THREADS,
            })
        })
        .collect();
    parallel_map(&cells, env_config().jobs, |&cell| {
        let m = replay_cell(cell, 1, SCALE);
        assert!(m.commits > 0, "{cell:?} committed nothing");
    });
}

#[test]
fn fixture_seed_derivation_is_pinned() {
    // The committed trace hashes are digests of runs driver-seeded through
    // `seer_harness::sim_seed`; if the derivation moves, every fixture
    // line moves with it, so pin it here next to the fixtures themselves.
    assert_eq!(seer_harness::sim_seed(0), 0x5EE2);
    assert_eq!(seer_harness::sim_seed(2), 0x5EE2 + 2 * 7919);
}

#[test]
fn different_seeds_produce_different_schedules() {
    // The digest must actually discriminate: two seeds of the same cell
    // may not collide (they run different traces).
    let cell = Cell {
        benchmark: Benchmark::KmeansHigh,
        policy: PolicyKind::Seer,
        threads: THREADS,
    };
    let a = replay_cell(cell, 0, SCALE);
    let b = replay_cell(cell, 1, SCALE);
    assert_ne!(a.trace_hash, b.trace_hash);
}

//! Supervision conformance: a poisoned cell must degrade into a partial
//! report, not abort the sweep or leak into its siblings (DESIGN.md §13).
//!
//! The executor isolates every computed cell under `catch_unwind`. A cell
//! whose run panics becomes a [`FailedItem`](seer_harness::FailedItem) in
//! the report, every sibling completes, and the hole is explicit: a
//! healthy executor over the same plan computes every cell, and the
//! once-poisoned cell matches a fresh simulation.

use seer_harness::{
    env_config, execute_cell, Cell, CellExecutor, CellKey, HarnessConfig, Plan, PolicyKind,
};
use seer_stamp::Benchmark;

const SCALE: f64 = 0.08;
const THREADS: usize = 4;

fn config() -> HarnessConfig {
    HarnessConfig {
        seeds: 1,
        scale: SCALE,
        jobs: env_config().jobs,
    }
}

/// Two benchmarks × every policy — crosses every scheduler code path.
fn small_cells() -> Vec<Cell> {
    [Benchmark::Ssca2, Benchmark::KmeansHigh]
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
fn poisoned_cell_degrades_into_a_partial_report() {
    let cells = small_cells();
    let keys: Vec<CellKey> = cells
        .iter()
        .map(|&cell| CellKey::new(cell, 0, SCALE))
        .collect();
    let poisoned = keys[0];
    let mut generic_plan = seer_store::Plan::new();
    for &key in &keys {
        generic_plan.add(key);
    }

    // An executor whose run function panics on one cell: the fault is
    // isolated into a FailedItem, the siblings complete.
    let bad = seer_store::Executor::new(env_config().jobs, None, move |key: CellKey| {
        assert!(key != poisoned, "injected fault");
        execute_cell(key.cell(), key.seed, key.scale(), None)
    });
    let report = bad.execute(&generic_plan);
    assert!(!report.complete());
    assert_eq!(report.failed.len(), 1, "{report:?}");
    assert_eq!(report.failed[0].key, poisoned);
    assert_eq!(report.covered(), keys.len() - 1);
    assert_eq!(report.computed, (keys.len() - 1) as u64, "{report:?}");
    assert!(
        bad.cached(&poisoned).is_none(),
        "a failed cell has no value"
    );

    // A healthy executor over the same plan computes every cell.
    let healthy = CellExecutor::new(config(), None);
    let mut plan = Plan::new();
    for &cell in &cells {
        plan.add_one(cell, 0, SCALE);
    }
    let report = healthy.execute(&plan);
    assert!(report.complete(), "healthy run failed: {report:?}");
    assert_eq!(report.computed, keys.len() as u64, "{report:?}");

    // The siblings the poisoned executor did compute are untouched by the
    // fault, and the once-poisoned cell matches a fresh simulation.
    for (&cell, key) in cells.iter().zip(&keys).skip(1) {
        let sibling = bad.cached(key).expect("sibling computed");
        let fresh = healthy.cached(cell, 0, SCALE).expect("covered");
        assert_eq!(sibling.trace_hash, fresh.trace_hash, "{cell:?}");
    }
    let fixed = healthy.cached(cells[0], 0, SCALE).expect("covered");
    let fresh = execute_cell(cells[0], 0, SCALE, None);
    assert_eq!(fixed.trace_hash, fresh.trace_hash);
}

//! Executor guarantees, pinned as tests: parallel execution is
//! bit-identical to serial, and a set of overlapping experiments sharing
//! one executor simulates each unique `(cell, seed)` exactly once.

use seer_harness::{
    figure3, figure4, table3, Cell, CellExecutor, CellResult, HarnessConfig, Plan, PolicyKind,
    THREADS_TABLE,
};
use seer_stamp::Benchmark;

const SCALE: f64 = 0.08;
const THREADS: [usize; 2] = [2, 4];

fn config(jobs: usize, seeds: u64) -> HarnessConfig {
    HarnessConfig {
        seeds,
        scale: SCALE,
        jobs,
    }
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for benchmark in Benchmark::STAMP {
        for policy in PolicyKind::FIGURE3 {
            for threads in THREADS {
                cells.push(Cell {
                    benchmark,
                    policy,
                    threads,
                });
            }
        }
    }
    cells
}

#[test]
fn parallel_execution_equals_serial_field_for_field() {
    let serial = CellExecutor::new(config(1, 2), None);
    let parallel = CellExecutor::new(config(4, 2), None);
    let cells = grid();

    let mut serial_plan = Plan::new();
    let mut parallel_plan = Plan::new();
    for &cell in &cells {
        serial_plan.add(cell, serial.config());
        parallel_plan.add(cell, parallel.config());
    }
    let serial_report = serial.execute(&serial_plan);
    let parallel_report = parallel.execute(&parallel_plan);

    for &cell in &cells {
        let a: CellResult = serial.cell(cell).expect("serial covered");
        let b: CellResult = parallel.cell(cell).expect("parallel covered");
        assert_eq!(a, b, "results diverged for {cell:?}");
        // Down to the raw per-seed trace: bit-identical schedules.
        for seed in 0..serial.config().seeds {
            let ma = serial.cached(cell, seed, SCALE).unwrap();
            let mb = parallel.cached(cell, seed, SCALE).unwrap();
            assert_eq!(ma.trace_hash, mb.trace_hash, "{cell:?} seed {seed}");
            assert_eq!(ma.makespan, mb.makespan, "{cell:?} seed {seed}");
            assert_eq!(ma.commits, mb.commits, "{cell:?} seed {seed}");
            assert_eq!(ma.aborts, mb.aborts, "{cell:?} seed {seed}");
            assert_eq!(ma.modes, mb.modes, "{cell:?} seed {seed}");
        }
    }
    // Both executors did exactly the unique work, no more.
    assert_eq!(serial_report.computed, parallel_report.computed);
    assert_eq!(serial_report.computed, (cells.len() * 2) as u64);
}

#[test]
fn parallel_figure3_renders_identically_to_serial() {
    let serial = CellExecutor::new(config(1, 1), None);
    let parallel = CellExecutor::new(config(3, 1), None);
    let a = figure3(&serial, &THREADS).1.expect("serial figure");
    let b = figure3(&parallel, &THREADS).1.expect("parallel figure");
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(pa.render(), pb.render());
    }
}

#[test]
fn memoization_accounting_across_overlapping_experiments() {
    let seeds = 1u64;
    let exec = CellExecutor::new(config(2, seeds), None);

    let (fig3, _) = figure3(&exec, &THREADS);
    let (tab3, _) = table3(&exec, &THREADS);
    let (fig4, _) = figure4(&exec, &THREADS);

    // figure3: STAMP × FIGURE3 × |THREADS| cells; table3 re-reads exactly
    // that grid; figure4 adds (STAMP + hashmap-low) × {RTM, profile-only},
    // of which STAMP × RTM is already cached. New per thread count:
    // profile-only on the 8 STAMP benchmarks + both policies on hashmap.
    let fig3_cells = (8 * 4 * THREADS.len()) as u64 * seeds;
    let fig4_new = ((8 + 2) * THREADS.len()) as u64 * seeds;
    assert_eq!(fig3.computed, fig3_cells);
    assert_eq!(
        (tab3.computed, tab3.memo_hits),
        (0, fig3_cells),
        "table3 must be served from cache"
    );
    assert_eq!(fig4.computed, fig4_new, "figure4 re-simulated shared cells");
    assert_eq!(fig4.memo_hits as usize, fig4.planned - fig4_new as usize);
}

#[test]
fn table3_after_figure3_is_free() {
    let exec = CellExecutor::new(config(2, 1), None);
    figure3(&exec, &THREADS_TABLE);
    let (report, _) = table3(&exec, &THREADS_TABLE);
    assert_eq!(report.computed, 0, "table3 re-simulated cached cells");
}

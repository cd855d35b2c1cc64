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
    let mut serial = CellExecutor::new(config(1, 2));
    let mut parallel = CellExecutor::new(config(4, 2));
    let cells = grid();

    let mut serial_plan = Plan::new();
    let mut parallel_plan = Plan::new();
    for &cell in &cells {
        serial_plan.add(cell, serial.config());
        parallel_plan.add(cell, parallel.config());
    }
    let serial_simulated = serial.execute(&serial_plan);
    let parallel_simulated = parallel.execute(&parallel_plan);

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
    assert_eq!(serial_simulated, parallel_simulated);
    assert_eq!(serial_simulated, cells.len() * 2);
}

#[test]
fn parallel_figure3_renders_identically_to_serial() {
    let a = figure3(&mut CellExecutor::new(config(1, 1)), &THREADS);
    let b = figure3(&mut CellExecutor::new(config(3, 1)), &THREADS);
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(pa.render(), pb.render());
    }
}

#[test]
fn memoization_accounting_across_overlapping_experiments() {
    let seeds = 1u64;
    let mut exec = CellExecutor::new(config(2, seeds));

    // figure3: STAMP × FIGURE3 × |THREADS| cells; table3 re-reads exactly
    // that grid; figure4 adds (STAMP + hashmap-low) × {RTM, profile-only},
    // of which STAMP × RTM is already cached. New per thread count:
    // profile-only on the 8 STAMP benchmarks + both policies on hashmap.
    let fig3_cells = 8 * 4 * THREADS.len() * seeds as usize;
    let fig4_new = (8 + 2) * THREADS.len() * seeds as usize;

    figure3(&mut exec, &THREADS);
    assert_eq!(exec.simulated(), fig3_cells);
    table3(&mut exec, &THREADS);
    assert_eq!(
        exec.simulated(),
        fig3_cells,
        "table3 must be served from cache"
    );
    figure4(&mut exec, &THREADS);
    assert_eq!(
        exec.simulated() - fig3_cells,
        fig4_new,
        "figure4 re-simulated shared cells"
    );
}

#[test]
fn table3_after_figure3_is_free() {
    let mut exec = CellExecutor::new(config(2, 1));
    figure3(&mut exec, &THREADS_TABLE);
    let after_figure3 = exec.simulated();
    let (tables, _) = table3(&mut exec, &THREADS_TABLE);
    assert_eq!(
        exec.simulated(),
        after_figure3,
        "table3 re-simulated cached cells"
    );
    assert_eq!(tables.len(), PolicyKind::FIGURE3.len());
}

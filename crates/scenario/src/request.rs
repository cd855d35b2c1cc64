//! The one front door for running simulations: [`RunRequest`].
//!
//! The workspace used to grow a new `run_*` free function every time an
//! experiment needed one more knob (`run_once`, `run_once_traced`, …).
//! This module collapses them into a single builder:
//!
//! ```no_run
//! use seer_scenario::RunRequest;
//! use seer_harness::{Cell, PolicyKind};
//! use seer_stamp::Benchmark;
//!
//! // A harness cell — one (benchmark, policy, threads, seed, scale) run.
//! let metrics = RunRequest::cell(Cell {
//!     benchmark: Benchmark::Ssca2,
//!     policy: PolicyKind::Seer,
//!     threads: 4,
//! })
//! .scale(0.08)
//! .seed(1)
//! .run();
//! # let _ = metrics;
//! ```
//!
//! The builder bottoms out in `seer_harness::execute_cell` and adds
//! nothing to the schedule, so traced and untraced runs of the same
//! coordinates, direct or through an executor, are bit-identical.

use seer_harness::{execute_cell, Cell};
use seer_runtime::{RunMetrics, TraceSink};

/// Entry point for every simulation run in the workspace.
///
/// `RunRequest` itself is never instantiated; [`RunRequest::cell`] hands
/// out the builder.
#[derive(Debug)]
pub struct RunRequest;

impl RunRequest {
    /// A harness-cell run: `seed` 0, `scale` 1.0, untraced by default.
    pub fn cell(cell: Cell) -> CellRun<'static> {
        CellRun {
            cell,
            seed: 0,
            scale: 1.0,
            sink: None,
        }
    }
}

/// Builder for one harness-cell run (see [`RunRequest::cell`]).
pub struct CellRun<'r> {
    cell: Cell,
    seed: u64,
    scale: f64,
    sink: Option<&'r mut dyn TraceSink>,
}

impl<'r> CellRun<'r> {
    /// Harness seed (derives the simulator seed via `sim_seed`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Workload scale factor (1.0 = the paper's full-size inputs).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Streams lifecycle/inference events into `sink`. Per the
    /// sink-not-flag discipline this never changes the schedule.
    pub fn traced<'s>(self, sink: &'s mut dyn TraceSink) -> CellRun<'s> {
        CellRun {
            cell: self.cell,
            seed: self.seed,
            scale: self.scale,
            sink: Some(sink),
        }
    }

    /// Runs the cell to completion.
    ///
    /// # Panics
    /// If the run trips the driver's event safety valve (`truncated`).
    pub fn run(self) -> RunMetrics {
        execute_cell(self.cell, self.seed, self.scale, self.sink)
    }
}

impl std::fmt::Debug for CellRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellRun")
            .field("cell", &self.cell)
            .field("seed", &self.seed)
            .field("scale", &self.scale)
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_harness::{CellExecutor, HarnessConfig, Plan, PolicyKind};
    use seer_runtime::{MemoryTraceSink, NullTraceSink};

    #[test]
    fn traced_and_untraced_cell_runs_are_bit_identical() {
        let cell = Cell {
            benchmark: seer_stamp::Benchmark::KmeansLow,
            policy: PolicyKind::Seer,
            threads: 4,
        };
        let untraced = RunRequest::cell(cell).scale(0.1).run();
        let same = |m: &RunMetrics| {
            assert_eq!(untraced.trace_hash, m.trace_hash);
            assert_eq!(untraced.commits, m.commits);
            assert_eq!(untraced.makespan, m.makespan);
        };
        let mut sink = MemoryTraceSink::new();
        same(&RunRequest::cell(cell).scale(0.1).traced(&mut sink).run());
        assert!(!sink.lifecycle.is_empty(), "the sink actually collected");
        same(
            &RunRequest::cell(cell)
                .scale(0.1)
                .traced(&mut NullTraceSink)
                .run(),
        );

        // The executor computes the same value, and traced runs add no
        // work to it: re-executing its plan simulates 0 cells.
        let mut exec = CellExecutor::new(HarnessConfig {
            seeds: 1,
            scale: 0.1,
            jobs: 1,
        });
        let mut plan = Plan::new();
        plan.add_one(cell, 0, 0.1);
        assert_eq!(exec.execute(&plan), 1);
        same(&exec.cached(cell, 0, 0.1).expect("executed above"));
        RunRequest::cell(cell)
            .scale(0.1)
            .traced(&mut MemoryTraceSink::new())
            .run();
        assert_eq!(exec.execute(&plan), 0);
    }
}

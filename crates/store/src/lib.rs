//! # seer-store — the JSON codec and supervised execution
//!
//! Every simulation in the workspace is a pure function of its
//! coordinates, so a sweep is a set of independent work items. This crate
//! holds the pieces the harness uses to run such sets (DESIGN.md §13):
//!
//! * [`json`] — the workspace's dependency-free JSON tree, its one
//!   serializer and parser.
//! * [`Executor`] — the generic plan/memoize/fan-out engine behind the
//!   harness's `CellExecutor`.
//! * [`supervisor`] — `catch_unwind` isolation plus an optional
//!   wall-clock deadline per item, so one poisoned or runaway cell
//!   degrades into an explicit entry of the [`ExecReport`] rather than
//!   aborting the sweep.
//!
//! Determinism is non-negotiable: the executor's values are bit-identical
//! to a serial run for any fan-out width, and the conformance suite
//! replays the committed trace-hash fixtures to pin it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod executor;
pub mod json;
pub mod supervisor;

pub use executor::{parallel_map, ExecReport, Executor, FailedItem, Plan, PlanKey};
pub use json::{Json, ToJson};
pub use supervisor::{supervise, RunFailure};

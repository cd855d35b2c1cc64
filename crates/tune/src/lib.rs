//! # seer-tune — deterministic parameter search for Seer's knobs
//!
//! The paper pins Seer's scheduling knobs (sampling window, statistics
//! decay, the discriminative-sigma cutoff, the `Th1`/`Th2` activation
//! thresholds) to hand-picked constants. This crate closes the loop the
//! rest of the workspace already enables: a search subsystem that
//! *consumes* the execution stack — memoizing executor, content-
//! addressed store, scenario recovery scoring — instead of extending
//! it.
//!
//! The moving parts:
//!
//! * [`space::ParamSpace`] — a pure-data search-space spec (named
//!   integer / float / log-float / categorical dimensions) with full
//!   validation and JSON round-tripping;
//! * [`driver`] — seeded random search, successive halving, and
//!   coordinate hill-climbing, all pure functions of
//!   `(space, objective, seed)` and bit-reproducible at any fan-out;
//! * [`objective`] — stationary throughput over a pinned cell plan, a
//!   robustness objective folding scenario `RecoveryReport`s, and their
//!   combination;
//! * [`exec::TuneExecutor`] — trial evaluation through the generic
//!   executor: every run memoizes, persists to `--store`, resumes, and
//!   fans out over `--jobs` threads with no new key kind;
//! * [`report`] — the ranked leaderboard plus a per-dimension
//!   sensitivity table derived from trials already evaluated.
//!
//! ```
//! use seer_tune::{run_search, DriverKind, ParamSpace, ThroughputObjective, TuneExecutor};
//!
//! let space = ParamSpace::default_space();
//! let exec = TuneExecutor::new(1, None, None);
//! let outcome = run_search(
//!     &space, DriverKind::Random, 2, 0, &ThroughputObjective, &exec, &mut |_, _| {},
//! );
//! assert_eq!(outcome.trials.len(), 2);
//! assert!(outcome.best.is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod exec;
pub mod objective;
pub mod report;
pub mod sampler;
pub mod space;

pub use driver::{run_search, DriverKind, SearchOutcome, Trial, BASE_FIDELITY, MAX_FIDELITY};
pub use exec::{TuneExecutor, TuneKey};
pub use objective::{
    objective_by_name, recovery_score, CombinedObjective, Objective, RobustnessObjective,
    ThroughputObjective, PINNED_BENCHMARKS, PINNED_SCALE, PINNED_SCENARIOS, PINNED_THREADS,
};
pub use report::{report_json, sensitivity, validate_report, Sensitivity, SCHEMA_VERSION};
pub use space::{Dim, DimKind, ParamSpace, ParamValue, Point, SpaceError};

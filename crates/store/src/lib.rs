//! # seer-store — durable results and crash-safe execution
//!
//! Every simulation in the workspace is a pure function of its
//! coordinates, which makes results *cacheable across processes*, not
//! just within one. This crate provides the three layers that exploit
//! that (DESIGN.md §13):
//!
//! * [`json`] — the workspace's dependency-free JSON tree (moved here
//!   from the harness so persistence does not depend on it).
//! * [`Store`] — a content-addressed shard-per-result store on disk:
//!   atomic temp-file+rename writes, FNV-1a per-shard checksums, and
//!   corruption detection that *quarantines* bad shards and recomputes
//!   instead of crashing. Keyed by `(key, kernel fingerprint)` so stale
//!   results from an older kernel can never warm a newer run.
//! * [`Executor`] — the one generic plan/memoize/fan-out engine behind
//!   both the harness's `CellExecutor` and the scenario engine's
//!   `ScenarioExecutor`, extended with disk warm-start
//!   ([`Executor::disk_hits`]) and a [`supervisor`]: bounded retry with
//!   exponential backoff, optional wall-clock deadline per item, and
//!   `catch_unwind` isolation so one poisoned cell degrades into an
//!   explicit entry of the [`ExecReport`] rather than aborting the sweep.
//!
//! Determinism is non-negotiable: a disk-warmed or resumed run must be
//! byte-identical to a cold one. The shard format therefore stores every
//! field of the result losslessly (floats round-trip via the JSON
//! module's shortest-round-trip formatting), and the conformance suite
//! replays the committed trace-hash fixtures against a warmed store.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod executor;
pub mod json;
pub mod persist;
pub mod store;
pub mod supervisor;

pub use executor::{parallel_map, ExecReport, Executor, FailedItem, Plan, PlanKey};
pub use json::{Json, ToJson};
pub use persist::{fnv1a, Persist, StoreKey};
pub use store::{kernel_fingerprint, Store, StoreStats};
pub use supervisor::{supervise, RunFailure, SupervisorConfig};

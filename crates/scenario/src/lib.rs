//! # seer-scenario — the workspace's one run entry point
//!
//! [`RunRequest`] builds and runs one harness cell, traced or untraced.
//! The crate is all that is left of the disturbance-scenario engine; it
//! stays a crate of its own only because `benchmark/src/main.rs` imports
//! `seer_scenario::RunRequest` and `benchmark/Cargo.lock` pins its
//! dependency edges. ROADMAP item 6 moves `RunRequest` below the
//! harness and removes this crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod request;

pub use request::{CellRun, RunRequest};

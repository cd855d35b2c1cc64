//! # seer-store — the workspace's JSON codec
//!
//! [`json`] holds the dependency-free JSON tree, its one serializer and
//! its one parser; every report, trace export and schema check in the
//! workspace goes through it. The name is historical; it stays because
//! `benchmark/Cargo.lock` pins it (ROADMAP item 6).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;

pub use json::{Json, ToJson};

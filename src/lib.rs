//! # seer-repro — umbrella crate
//!
//! Re-exports the whole Seer reproduction workspace under one roof for the
//! examples and cross-crate integration tests. Library users should
//! depend on the individual crates:
//!
//! * [`seer`] — the Seer scheduler (the paper's contribution);
//! * [`seer_runtime`] — driver, scheduler interface, workload interface;
//! * [`seer_htm`] — the best-effort HTM model;
//! * [`seer_sim`] — the discrete-event simulation substrate;
//! * [`seer_baselines`] — HLE / RTM / SCM / ATS;
//! * [`seer_stamp`] — the STAMP-like workload models;
//! * [`seer_harness`] — the experiment harness regenerating the paper's
//!   tables and figures.

pub use seer;
pub use seer_baselines;
pub use seer_harness;
pub use seer_htm;
pub use seer_runtime;
pub use seer_sim;
pub use seer_stamp;

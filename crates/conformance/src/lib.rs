//! # seer-conformance — the reproduction checking itself
//!
//! Every other crate in this workspace implements something; this one
//! implements nothing twice *on purpose* and compares. It holds the three
//! legs of the conformance layer (see `DESIGN.md`):
//!
//! 1. **Differential oracles** ([`oracle`]) — deliberately naive
//!    re-implementations of the probabilistic inference of Alg. 5
//!    (`P(x aborts | x‖y)`, `P(x aborts ∧ x‖y)`, the Gaussian percentile
//!    cut via bisection instead of Acklam's closed form) that the real
//!    [`seer::inference`] / [`seer::gaussian`] are cross-checked against on
//!    thousands of randomized statistics matrices.
//! 2. **A reference scheduler** ([`refsched::SglOnly`]) — the simplest
//!    policy that can possibly be correct: every transaction straight to
//!    the single global lock. Its metrics are fully predictable, which
//!    makes it an oracle for the driver's accounting.
//! 3. **Deterministic replay** ([`replay`]) — every run is a pure function
//!    of `(workload, scheduler, config, seed)`; the replay harness runs
//!    cells twice and compares the [`seer_sim::EventQueue`] trace hash
//!    bit-for-bit, and the committed fixtures in
//!    `tests/fixtures/trace_hashes.txt` pin the schedules across
//!    refactorings.
//!
//! The runtime-side invariant checker itself lives in `seer-runtime` and
//! runs after every event of every build with debug assertions, so the
//! replay matrix doubles as an invariant-checking sweep.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod oracle;
pub mod refsched;
pub mod replay;

pub use oracle::{
    random_stats, reference_decision, reference_gaussian_percentile, reference_infer,
    reference_std_normal_quantile, stats_violations,
};
pub use refsched::SglOnly;
pub use replay::replay_cell;

//! # seer — probabilistic scheduling for hardware transactional memory
//!
//! A faithful reproduction of **Seer** (Diegues, Romano, Garbatov —
//! SPAA 2015): the first transaction scheduler designed for commodity
//! best-effort HTM, where aborts carry only a coarse cause category and
//! never identify the conflicting transaction.
//!
//! Seer compensates for that information gap probabilistically:
//!
//! 1. [`active::ActiveTxs`] — threads announce the atomic block they are
//!    executing in a synchronization-free array;
//! 2. [`stats`] — every commit/abort scans the announcements into
//!    commit/abort frequency matrices. The paper keeps one set per thread
//!    and sums them, because real threads register concurrently; the
//!    simulator runs on one host thread, so it keeps the one summed set
//!    and writes it directly;
//! 3. [`inference`] — periodically, one full round derives conditional
//!    and conjunctive abort probabilities per block pair, and a pair is
//!    declared conflicting when `P(x aborts ∧ x‖y) > Th1` and `P(x aborts | x‖y)`
//!    exceeds the `Th2`-th percentile of a Gaussian fitted to the row
//!    ([`gaussian`]);
//! 4. [`locktable::LockTable`] — the inferred pairs become a dynamic
//!    fine-grained locking scheme (one lock per atomic block) acquired on a
//!    transaction's last hardware attempt;
//! 5. [`hillclimb::HillClimber`] — `Th1`/`Th2` self-tune online from
//!    throughput feedback;
//! 6. *core locks* — one lock per physical core, taken after capacity
//!    aborts, stop SMT siblings from thrashing their shared L1.
//!
//! The scheduler itself is [`scheduler::Seer`]; its mechanisms toggle
//! individually through [`config::SeerConfig`] to support the paper's
//! Figure 4/5 ablations.
//!
//! ## Quick example
//!
//! ```
//! use seer::{Seer, SeerConfig};
//! use seer_runtime::{run, DriverConfig, Workload};
//! use seer_stamp::Benchmark;
//!
//! let mut workload = Benchmark::HashmapLow.instantiate(4, 50);
//! let mut seer = Seer::new(SeerConfig::full(), 4, workload.num_blocks());
//! let metrics = run(&mut workload, &mut seer, &DriverConfig::paper_machine(4, 1));
//! assert_eq!(metrics.commits, 200);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod active;
pub mod config;
pub mod gaussian;
pub mod hillclimb;
pub mod inference;
pub mod locktable;
pub mod scheduler;
pub mod stats;

pub use config::{ProfilingCosts, SeerConfig};
pub use hillclimb::HillClimber;
pub use inference::{infer_conflict_pairs, InferenceScratch, Thresholds};
pub use locktable::LockTable;
pub use scheduler::{Seer, SeerCounters};

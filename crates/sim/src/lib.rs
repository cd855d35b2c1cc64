//! # seer-sim — deterministic discrete-event simulation engine
//!
//! This crate is the lowest layer of the Seer reproduction. It provides the
//! machinery every other crate builds on:
//!
//! * [`Cycles`] — virtual time, measured in CPU cycles of the simulated
//!   machine. All latencies, wait times and throughput numbers in the
//!   reproduction are expressed in this unit, which is what makes the whole
//!   evaluation deterministic and host-independent (the paper measured
//!   wall-clock on a Haswell Xeon; we substitute simulated cycles — see
//!   `DESIGN.md` §2).
//! * [`EventQueue`] — a stable priority queue of timestamped events. Ties
//!   are broken by insertion order so a simulation run is a total order of
//!   events and therefore perfectly reproducible.
//! * [`Topology`] — the simulated machine shape: physical cores × SMT
//!   (hyper-threads). The paper's machine is `Topology::new(4, 2)`.
//! * [`SimLock`] — a simulated lock with a FIFO waiter queue. Locks never
//!   block the host; the runtime driver parks
//!   simulated threads on them and wakes them at release events.
//! * [`SimRng`] — a seeded, splittable small RNG plus the samplers the
//!   workload models need (Zipf, geometric, ranges).
//!
//! Nothing in this crate knows about transactions; it is a general-purpose
//! DES substrate with the specific features the HTM model requires.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod histogram;
pub mod lock;
pub mod rng;
pub mod topology;

pub use event::{EventEntry, EventQueue};
pub use histogram::CycleHistogram;
pub use lock::SimLock;
pub use rng::{SimRng, ZipfTable};
pub use topology::{CoreId, ThreadId, Topology};

/// Virtual time, in cycles of the simulated machine.
///
/// A plain `u64` alias (rather than a newtype) keeps arithmetic in hot
/// simulation loops free of wrapper noise; the type alias still documents
/// intent at API boundaries.
pub type Cycles = u64;

/// Nominal clock used when converting virtual time to the microsecond
/// timestamps external trace formats expect (Chrome's `chrome://tracing`
/// JSON uses µs). One simulated cycle = 1 ns, i.e. a 1 GHz nominal clock:
/// the absolute scale is arbitrary — only ratios of [`Cycles`] carry
/// meaning — but a fixed convention keeps exported traces comparable.
pub const NOMINAL_CYCLES_PER_MICROSECOND: u64 = 1_000;

/// Converts virtual time to trace-export microseconds under the nominal
/// 1 GHz clock. Fractional so sub-microsecond events keep their order.
pub fn cycles_to_trace_micros(cycles: Cycles) -> f64 {
    cycles as f64 / NOMINAL_CYCLES_PER_MICROSECOND as f64
}

//! # seer-runtime — the transaction execution runtime
//!
//! Binds a [`workload::Workload`] (a TM application), a
//! [`scheduler::Scheduler`] (a contention-management policy) and the
//! simulated HTM machine (`seer-htm`) together under a deterministic
//! discrete-event driver ([`driver::run`]).
//!
//! The driver implements the *generic* structure every evaluated scheduler
//! shares — the retry loop with an attempt budget, the single-global-lock
//! fall-back, begin-time lock subscription, abort penalties — which is
//! Algorithm 1 of the paper minus the Seer-specific lines. Policies hook in
//! through [`scheduler::Scheduler`] callbacks and declarative
//! [`scheduler::Gate`]s; the baselines (`seer-baselines`) and Seer itself
//! (`seer` crate) are both implemented purely against this interface, so
//! every comparison in the harness runs on identical substrate mechanics.
//!
//! [`model::StampModel`] is the one workload generator: atomic blocks over
//! shared regions. `seer-stamp` calibrates it per benchmark, and the
//! runtime's, baselines' and core's tests build their own programs with it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod locks;
pub mod metrics;
pub mod model;
pub mod scheduler;
pub mod trace;
pub mod workload;

pub use driver::{run, run_traced, DriverConfig};
pub use locks::{LockBank, LockId};
pub use metrics::{AbortCounts, ConflictGroundTruth, ModeCounts, RunMetrics, TxMode};
pub use scheduler::{
    AbortDecision, Gate, HookPoint, NullScheduler, SchedEnv, SchedFault, Scheduler,
};
pub use trace::{
    AbortCause, InferenceTrace, LifecycleEvent, MemoryTraceSink, NullTraceSink, PairDecision,
    RowTrace, TraceSink, Verdict,
};
pub use workload::{Access, BlockId, TxRequest, Workload};

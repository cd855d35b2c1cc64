//! The workload interface: programs as streams of transactional requests.
//!
//! A workload models a TM application the way the scheduler sees it: a set
//! of *atomic blocks* (static program locations, identified by [`BlockId`]
//! exactly as Seer's minimal compiler support enumerates them — paper §3),
//! and per-thread streams of transaction instances. Each instance carries a
//! concrete *access trace* over cache lines, generated from the workload's
//! logical state at attempt time, plus timing (body duration, preceding
//! non-transactional think time).
//!
//! Traces are regenerated on retry via [`Workload::regenerate`] so that
//! data-dependent footprints (hash probes, tree paths) can move as the
//! logical state evolves, like re-executed hardware transactions would.

use seer_htm::{AccessKind, LineAddr};
use seer_sim::{Cycles, SimRng, ThreadId};

/// Identifier of an atomic block (static program location).
pub type BlockId = usize;

/// One transactional memory access at `offset` cycles into the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Target cache line.
    pub line: LineAddr,
    /// Load or store.
    pub kind: AccessKind,
    /// Cycles from the start of the transaction body to this access.
    pub offset: Cycles,
}

/// A transaction instance: one dynamic execution of an atomic block. The
/// default is empty (block 0, no accesses, zero timing): the storage a
/// [`Workload::next_into`] call fills.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxRequest {
    /// Which atomic block this instance executes.
    pub block: BlockId,
    /// The accesses, sorted by non-decreasing `offset`.
    pub accesses: Vec<Access>,
    /// Body length in cycles, at least the last access offset.
    pub duration: Cycles,
    /// Non-transactional work preceding this transaction.
    pub think: Cycles,
}

impl TxRequest {
    /// Validates the well-formedness invariants (sorted offsets within the
    /// duration). Used by tests and debug assertions in the driver.
    pub fn is_well_formed(&self) -> bool {
        let mut prev = 0;
        for a in &self.accesses {
            if a.offset < prev || a.offset > self.duration {
                return false;
            }
            prev = a.offset;
        }
        true
    }
}

/// A transactional application driven by the simulator.
///
/// All methods take `&mut self`; the DES driver is single-threaded, so the
/// workload's logical state needs no synchronization (the simulated
/// program's synchronization is exactly what the HTM model enforces).
pub trait Workload {
    /// Human-readable name (used in reports).
    fn name(&self) -> &str;

    /// Number of atomic blocks in the program source. Block ids in every
    /// [`TxRequest`] are below this bound.
    fn num_blocks(&self) -> usize;

    /// Produces the next transaction for `thread`, or `None` when the
    /// thread has finished its share of the work.
    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest>;

    /// [`Workload::next`] into a caller-owned request, the way
    /// [`Clone::clone_from`] relates to `clone`: on `true`, `req` holds
    /// exactly the request `next` would have returned (whatever it held
    /// before); on `false` the thread is done and `req` is unspecified.
    /// The driver keeps one request per thread and calls only this, so a
    /// workload that overrides it to rewrite `req` in place issues
    /// transactions without allocating. The default forwards to `next`.
    fn next_into(&mut self, thread: ThreadId, rng: &mut SimRng, req: &mut TxRequest) -> bool {
        match self.next(thread, rng) {
            Some(next) => {
                *req = next;
                true
            }
            None => false,
        }
    }

    /// Refreshes `req`'s trace for a retry after an abort. The default
    /// keeps the trace unchanged (re-execution touches the same data).
    fn regenerate(&mut self, _thread: ThreadId, _req: &mut TxRequest, _rng: &mut SimRng) {}

    /// Applies the logical effects of `req` committing.
    fn commit(&mut self, _thread: ThreadId, _req: &TxRequest, _rng: &mut SimRng) {}

    /// A scenario phase boundary was crossed (see `crates/scenario`):
    /// `phase` is the 0-based index into the scenario's phase list. Plain
    /// stationary workloads ignore it — the default is a no-op.
    fn on_phase(&mut self, _phase: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(line: u64, offset: Cycles) -> Access {
        Access {
            line,
            kind: AccessKind::Read,
            offset,
        }
    }

    #[test]
    fn well_formed_accepts_sorted_within_duration() {
        let req = TxRequest {
            block: 0,
            accesses: vec![acc(1, 0), acc(2, 5), acc(3, 5), acc(4, 10)],
            duration: 10,
            think: 0,
        };
        assert!(req.is_well_formed());
    }

    #[test]
    fn well_formed_rejects_unsorted() {
        let req = TxRequest {
            block: 0,
            accesses: vec![acc(1, 5), acc(2, 3)],
            duration: 10,
            think: 0,
        };
        assert!(!req.is_well_formed());
    }

    #[test]
    fn well_formed_rejects_offset_past_duration() {
        let req = TxRequest {
            block: 0,
            accesses: vec![acc(1, 11)],
            duration: 10,
            think: 0,
        };
        assert!(!req.is_well_formed());
    }

    #[test]
    fn empty_trace_is_well_formed() {
        let req = TxRequest {
            block: 0,
            accesses: vec![],
            duration: 0,
            think: 0,
        };
        assert!(req.is_well_formed());
    }
}

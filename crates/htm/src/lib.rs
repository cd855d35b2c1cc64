//! # seer-htm — a best-effort hardware transactional memory model
//!
//! This crate models an Intel TSX-class HTM at the level of abstraction a
//! *scheduler* interacts with (the substrate the Seer paper runs on — see
//! `DESIGN.md` §2 for the hardware→simulator substitution argument):
//!
//! * [`machine::HtmMachine`] — per-logical-CPU transactions with
//!   cache-line read/write sets, eager invalidation-based conflict
//!   detection (requester-wins), a sets×ways write-capacity model and a
//!   flat read budget, both shared (divided) between SMT siblings that are
//!   simultaneously transactional. The sets live in one line directory
//!   (`line → (readers, writers)` CPU masks, in [`mod@line`]), so a conflict
//!   check is one probe however many transactions are in flight, and
//!   ending a transaction costs its footprint, not the table size.
//! * [`status::XStatus`] — the TSX status word: `_XBEGIN_STARTED` or a
//!   coarse abort mask (conflict / capacity / explicit / retry / none). The
//!   machine never reveals *which* transaction caused an abort; the
//!   information gap Seer works around is preserved by construction.
//! * [`config::HtmConfig`] / [`config::CostModel`] — buffer geometry and
//!   the latency model used by the runtime driver.
//!
//! The crate is time-free: the DES driver (in `seer-runtime`) owns virtual
//! time and feeds accesses in global time order, turning the machine's
//! answers (victims, self-aborts) into scheduled events.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod line;
pub mod machine;
pub mod status;

pub use config::{CostModel, HtmConfig};
pub use line::LineAddr;
pub use machine::{AbortCause, AccessKind, HtmMachine};
pub use status::{xabort_codes, XStatus};

impl From<AbortCause> for XStatus {
    /// The status word software observes for each internal abort cause.
    fn from(cause: AbortCause) -> Self {
        match cause {
            AbortCause::WriteCapacity | AbortCause::ReadCapacity => XStatus::capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_cause_maps_to_coarse_status() {
        assert!(XStatus::from(AbortCause::WriteCapacity).is_capacity());
        assert!(XStatus::from(AbortCause::ReadCapacity).is_capacity());
        // Read and write capacity are indistinguishable to software,
        // exactly like TSX.
        assert_eq!(
            XStatus::from(AbortCause::WriteCapacity),
            XStatus::from(AbortCause::ReadCapacity)
        );
    }
}

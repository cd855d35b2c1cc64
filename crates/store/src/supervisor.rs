//! Per-item supervision: panic isolation plus an optional deadline.
//!
//! The executor wraps every computed plan item in [`supervise`]:
//!
//! * **Panic isolation** — the work runs under `catch_unwind`, so a
//!   poisoned cell (a tripped safety valve, a violated invariant) becomes
//!   a [`RunFailure::Panicked`] with the panic message, not a process
//!   abort. The default panic hook still prints, which is deliberate:
//!   the cell's stack trace is the evidence.
//! * **Deadline** — with a wall-clock limit given, the work runs on its
//!   own OS thread and the supervisor waits with a timeout. On expiry the
//!   runaway thread is *detached* (a pure simulation holds no locks anyone
//!   else needs; it finishes into the void and its result is discarded)
//!   and the item counts as [`RunFailure::TimedOut`]. The simulated-cycle
//!   budget is enforced inside the kernel itself — the driver's event
//!   safety valve truncates the run, the runner panics on `truncated`,
//!   and that panic lands here as a `Panicked` failure.
//!
//! There is no in-process retry: every item is a pure function of its
//! key, so a rerun reproduces the same panic. A timed-out item is a
//! coverage loss the command reports; re-running the command with a
//! longer deadline (or none) recomputes it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// Why a supervised item failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunFailure {
    /// The work panicked; carries the panic payload rendered as text.
    Panicked(String),
    /// The work exceeded the wall-clock deadline.
    TimedOut {
        /// The deadline that was exceeded.
        limit: Duration,
    },
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            RunFailure::TimedOut { limit } => {
                write!(f, "timed out after {} ms", limit.as_millis())
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `work` once, isolated from panics and, with a `deadline`, cut off
/// after that much wall-clock time.
pub fn supervise<V, F>(deadline: Option<Duration>, work: F) -> Result<V, RunFailure>
where
    V: Send + 'static,
    F: FnOnce() -> V + Send + 'static,
{
    let isolated = move || {
        catch_unwind(AssertUnwindSafe(work))
            .map_err(|payload| RunFailure::Panicked(panic_message(payload)))
    };
    let Some(limit) = deadline else {
        return isolated();
    };
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        // The receiver may be gone (deadline passed); that is the detach
        // path and the result is deliberately discarded.
        let _ = tx.send(isolated());
    });
    rx.recv_timeout(limit)
        .unwrap_or(Err(RunFailure::TimedOut { limit }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_is_transparent() {
        assert_eq!(supervise(None, || 41 + 1), Ok(42));
    }

    #[test]
    fn panic_is_contained_and_reported() {
        let result: Result<(), _> = supervise(None, || panic!("cell poisoned: boom"));
        match result.unwrap_err() {
            RunFailure::Panicked(msg) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn deadline_detaches_a_runaway() {
        let result: Result<(), _> = supervise(Some(Duration::from_millis(20)), || {
            std::thread::sleep(Duration::from_millis(500));
        });
        let failure = result.unwrap_err();
        assert!(
            matches!(failure, RunFailure::TimedOut { .. }),
            "{failure:?}"
        );
    }

    #[test]
    fn deadline_passes_fast_work_through() {
        assert_eq!(supervise(Some(Duration::from_secs(30)), || 5u8), Ok(5));
    }

    #[test]
    fn a_panic_under_a_deadline_is_a_panic_not_a_timeout() {
        let result: Result<(), _> = supervise(Some(Duration::from_secs(30)), || panic!("boom"));
        assert!(matches!(result, Err(RunFailure::Panicked(_))), "{result:?}");
    }
}

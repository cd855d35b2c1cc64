//! Slot-clearing property of `activeTxs`: a thread that leaves (parks)
//! must be invisible to Seer's shared structures — its cleared slot
//! never surfaces in a scan, however clears and re-announcements
//! interleave.

use proptest::prelude::*;
use seer::active::ActiveTxs;

const BLOCKS: usize = 4;

/// One step of a churn interleaving, encoded as plain integers so the
/// strategy stays a simple tuple vector.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A registration on a thread (if unparked): it announces, then scans
    /// the other slots as REGISTER-COMMIT / REGISTER-ABORT do.
    Register { thread: usize, block: usize },
    /// Park: clear the announcement slot.
    Park(usize),
    /// Unpark: the thread announces again and resumes registering.
    Unpark { thread: usize, block: usize },
}

fn arb_op(threads: usize) -> impl Strategy<Value = Op> {
    (0usize..6, 0usize..threads, 0usize..BLOCKS).prop_map(|(tag, thread, block)| match tag {
        0 => Op::Park(thread),
        1 => Op::Unpark { thread, block },
        _ => Op::Register { thread, block },
    })
}

/// Replays `ops` over `threads` slots, maintaining park state.
fn replay(threads: usize, ops: &[Op]) -> (ActiveTxs, Vec<bool>) {
    let mut active = ActiveTxs::new(threads);
    let mut parked = vec![false; threads];
    for &op in ops {
        match op {
            Op::Park(t) => {
                parked[t] = true;
                active.clear(t);
            }
            Op::Unpark { thread, block } => {
                parked[thread] = false;
                active.announce(thread, block);
            }
            Op::Register { thread, block } => {
                if parked[thread] {
                    continue;
                }
                active.announce(thread, block);
                std::hint::black_box(active.scan_others(thread).count());
            }
        }
    }
    (active, parked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A parked thread's slot is ignored by the activeTxs scan: no scan
    /// ever yields a block for a parked thread or for the scanner itself,
    /// and the scan agrees with a by-hand reference over the slots.
    #[test]
    fn parked_slots_never_surface_in_scans(
        threads in 2usize..8,
        ops in prop::collection::vec(arb_op(8), 1..60),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Park(t) => Op::Park(t % threads),
                Op::Unpark { thread, block } => Op::Unpark { thread: thread % threads, block },
                Op::Register { thread, block } => Op::Register { thread: thread % threads, block },
            })
            .collect();
        let (active, parked) = replay(threads, &ops);
        for (t, &is_parked) in parked.iter().enumerate() {
            prop_assert!(
                !is_parked || active.get(t).is_none(),
                "thread {t} parked but still announced"
            );
        }
        for scanner in 0..threads {
            let seen: Vec<usize> = active.scan_others(scanner).collect();
            let reference: Vec<usize> = (0..threads)
                .filter(|&t| t != scanner && !parked[t])
                .filter_map(|t| active.get(t))
                .collect();
            prop_assert_eq!(seen, reference, "scanner {}", scanner);
        }
    }
}

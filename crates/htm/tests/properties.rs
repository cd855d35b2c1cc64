//! Property-based tests for the HTM model.

use proptest::prelude::*;
use seer_htm::{AccessKind, HtmConfig, HtmMachine};
use seer_sim::Topology;
use std::collections::HashSet;

proptest! {
    /// Single-writer invariant: after any access sequence, no cache line is
    /// in the write set of one in-flight transaction and in any set of
    /// another — conflicting co-existence is impossible because the machine
    /// kills the other party eagerly.
    #[test]
    fn no_conflicting_coexistence(
        accesses in prop::collection::vec((0usize..4, 0u64..32, any::<bool>()), 1..300)
    ) {
        let mut m = HtmMachine::new(Topology::new(4, 1), HtmConfig::default());
        // Track what each live tx accessed, mirroring the machine.
        let mut reads: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        let mut writes: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        let mut live = [false; 4];
        let mut squeezed = Vec::new();
        let mut victims = Vec::new();
        for (t, line, is_write) in accesses {
            if !live[t] {
                m.begin_into(t, &mut squeezed);
                prop_assert!(squeezed.is_empty(), "no SMT in this topology");
                live[t] = true;
                reads[t].clear();
                writes[t].clear();
            }
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let self_abort = m.access_into(t, line, kind, &mut victims);
            for v in &victims {
                live[*v] = false;
                reads[*v].clear();
                writes[*v].clear();
            }
            if self_abort.is_some() {
                live[t] = false;
                reads[t].clear();
                writes[t].clear();
            } else if is_write {
                writes[t].insert(line);
            } else {
                reads[t].insert(line);
            }
            // Invariant: for every pair of live txs, write sets are
            // disjoint from the other's read+write sets.
            for a in 0..4 {
                for b in 0..4 {
                    if a == b || !live[a] || !live[b] {
                        continue;
                    }
                    prop_assert!(writes[a].is_disjoint(&writes[b]),
                        "double writer on a line");
                    prop_assert!(writes[a].is_disjoint(&reads[b]),
                        "writer coexists with reader");
                }
            }
        }
    }

    /// Capacity: a transaction writing k distinct lines into one cache set
    /// aborts exactly when k exceeds the effective ways.
    #[test]
    fn write_capacity_exact(ways in 1usize..8, extra in 0usize..6) {
        let cfg = HtmConfig {
            write_sets: 8,
            write_ways: ways,
            read_lines: 1024,
            smt_capacity_sharing: false,
        };
        let mut m = HtmMachine::new(Topology::new(1, 1), cfg);
        m.begin_into(0, &mut Vec::new());
        let k = ways + extra;
        let mut aborted_at = None;
        let mut victims = Vec::new();
        for i in 0..k {
            // Same set: stride by the set count.
            let line = (i as u64) * 8;
            if m.access_into(0, line, AccessKind::Write, &mut victims).is_some() {
                aborted_at = Some(i);
                break;
            }
        }
        if extra == 0 {
            prop_assert_eq!(aborted_at, None);
        } else {
            prop_assert_eq!(aborted_at, Some(ways), "abort on the (ways+1)-th line");
        }
    }

    /// kill_all_into reports exactly the set of in-flight transactions.
    #[test]
    fn kill_all_is_exhaustive(mask in 0u8..16) {
        let mut m = HtmMachine::new(Topology::new(4, 1), HtmConfig::default());
        let mut expect = Vec::new();
        for t in 0..4 {
            if mask & (1 << t) != 0 {
                m.begin_into(t, &mut Vec::new());
                expect.push(t);
            }
        }
        let mut killed = Vec::new();
        m.kill_all_into(&mut killed);
        killed.sort_unstable();
        prop_assert_eq!(killed, expect);
        for t in 0..4 {
            prop_assert!(!m.in_tx(t));
        }
    }
}

//! Op-for-op differential test of `HtmMachine` against a naive reference.
//!
//! `RefMachine` spells out the machine's contract with none of its speed:
//! per-CPU `HashSet` read/write sets, a linear scan over every CPU for
//! conflicts, write-set occupancy recounted from scratch on every write,
//! SMT siblings found by comparing `cpu % physical_cores`, and budgets
//! divided out on every use. Conflicts follow the eager model that *The
//! Transactional Conflict Problem* (Alistarh et al., arXiv 1804.00947)
//! formalises: a write conflicts with any other transaction holding the
//! line, a read with any other transaction that wrote it. The requester
//! wins, as in TSX: the holders abort, in ascending CPU order.
//!
//! Random streams of `begin` / `access` / `non_tx_access` / `commit` /
//! `abort` / `kill_all` run against both
//! machines. After every operation the two must agree on what the
//! operation reported (victims in order, the accessor's own abort cause,
//! squeezed siblings with their causes) and on every CPU's `in_tx`,
//! read/write set sizes and `co_resident_txs`.
//!
//! The machine keeps every CPU's sets in one line directory that grows
//! and deletes entries by backward shift. Footprint-shaped streams keep
//! hundreds of lines per CPU live at once, so the directory grows far
//! past its initial capacity and every transaction end deletes long runs
//! of entries, wrapped probe runs included.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use seer_htm::{AbortCause, AccessKind, HtmConfig, HtmMachine, LineAddr};
use seer_sim::{ThreadId, Topology};

/// The naive model. See the module docs.
struct RefMachine {
    topo: Topology,
    cfg: HtmConfig,
    active: Vec<bool>,
    reads: Vec<HashSet<LineAddr>>,
    writes: Vec<HashSet<LineAddr>>,
}

impl RefMachine {
    fn new(topo: Topology, cfg: HtmConfig) -> Self {
        let n = topo.logical_cpus();
        Self {
            topo,
            cfg,
            active: vec![false; n],
            reads: vec![HashSet::new(); n],
            writes: vec![HashSet::new(); n],
        }
    }

    fn cpus(&self) -> usize {
        self.active.len()
    }

    fn end(&mut self, t: ThreadId) {
        self.active[t] = false;
        self.reads[t].clear();
        self.writes[t].clear();
    }

    fn co_resident(&self, t: ThreadId) -> usize {
        let p = self.topo.physical_cores();
        (0..self.cpus())
            .filter(|&u| u % p == t % p && self.active[u])
            .count()
    }

    /// `(ways, read_lines)` for a transaction on `t`'s core right now.
    fn budgets(&self, t: ThreadId) -> (usize, usize) {
        let share = if self.cfg.smt_capacity_sharing {
            self.co_resident(t).max(1)
        } else {
            1
        };
        (
            (self.cfg.write_ways / share).max(1),
            (self.cfg.read_lines / share).max(1),
        )
    }

    /// Largest number of `t`'s written lines mapping to one cache set.
    fn max_occupancy(&self, t: ThreadId) -> usize {
        let mut per_set: HashMap<u64, usize> = HashMap::new();
        for &l in &self.writes[t] {
            *per_set.entry(l % self.cfg.write_sets as u64).or_default() += 1;
        }
        per_set.values().copied().max().unwrap_or(0)
    }

    fn holds(&self, u: ThreadId, line: LineAddr, kind: AccessKind) -> bool {
        self.writes[u].contains(&line)
            || (kind == AccessKind::Write && self.reads[u].contains(&line))
    }

    fn begin(&mut self, t: ThreadId) -> Vec<(ThreadId, AbortCause)> {
        assert!(!self.active[t]);
        self.active[t] = true;
        let mut squeezed = Vec::new();
        if self.cfg.smt_capacity_sharing {
            let (ways, reads) = self.budgets(t);
            let p = self.topo.physical_cores();
            for s in 0..self.cpus() {
                if s == t || s % p != t % p || !self.active[s] {
                    continue;
                }
                if self.max_occupancy(s) > ways {
                    self.end(s);
                    squeezed.push((s, AbortCause::WriteCapacity));
                } else if self.reads[s].len() > reads {
                    self.end(s);
                    squeezed.push((s, AbortCause::ReadCapacity));
                }
            }
        }
        squeezed
    }

    fn kill_holders(&mut self, t: ThreadId, line: LineAddr, kind: AccessKind) -> Vec<ThreadId> {
        let victims: Vec<ThreadId> = (0..self.cpus())
            .filter(|&u| u != t && self.active[u] && self.holds(u, line, kind))
            .collect();
        for &u in &victims {
            self.end(u);
        }
        victims
    }

    fn access(
        &mut self,
        t: ThreadId,
        line: LineAddr,
        kind: AccessKind,
    ) -> (Option<AbortCause>, Vec<ThreadId>) {
        assert!(self.active[t]);
        let victims = self.kill_holders(t, line, kind);
        let (ways, reads) = self.budgets(t);
        let overflow = match kind {
            AccessKind::Write => {
                let set = line % self.cfg.write_sets as u64;
                let occupancy = self.writes[t]
                    .iter()
                    .filter(|&&l| l % self.cfg.write_sets as u64 == set)
                    .count();
                (self.writes[t].insert(line) && occupancy + 1 > ways)
                    .then_some(AbortCause::WriteCapacity)
            }
            AccessKind::Read => (self.reads[t].insert(line) && self.reads[t].len() > reads)
                .then_some(AbortCause::ReadCapacity),
        };
        if overflow.is_some() {
            self.end(t);
        }
        (overflow, victims)
    }

    /// Distinct lines held by some in-flight transaction.
    fn live_lines(&self) -> usize {
        let mut live: HashSet<LineAddr> = HashSet::new();
        for t in 0..self.cpus() {
            live.extend(&self.reads[t]);
            live.extend(&self.writes[t]);
        }
        live.len()
    }

    fn kill_all(&mut self) -> Vec<ThreadId> {
        let killed: Vec<ThreadId> = (0..self.cpus()).filter(|&t| self.active[t]).collect();
        for &t in &killed {
            self.end(t);
        }
        killed
    }
}

/// The topologies under test, `16 × 4` being the 64-CPU edge.
fn topology(index: usize) -> Topology {
    match index {
        0 => Topology::haswell_e3(),
        1 => Topology::new(1, 2),
        2 => Topology::new(2, 1),
        _ => Topology::new(16, 4),
    }
}

/// Asserts every per-CPU observable agrees.
fn assert_same_state(m: &HtmMachine, r: &RefMachine, step: usize) {
    for t in 0..r.cpus() {
        assert_eq!(m.in_tx(t), r.active[t], "in_tx({t}) after op {step}");
        assert_eq!(
            m.read_set_len(t),
            r.reads[t].len(),
            "read set of {t} after op {step}"
        );
        assert_eq!(
            m.write_set_len(t),
            r.writes[t].len(),
            "write set of {t} after op {step}"
        );
        assert_eq!(
            m.co_resident_txs(t),
            r.co_resident(t),
            "co_resident_txs({t}) after op {step}"
        );
    }
}

/// One raw operation: `(kind, cpu, line, is_write)`. `cpu` is reduced
/// modulo the topology's CPU count.
type RawOp = (u8, usize, u64, bool);

/// Runs `ops` against both machines, comparing after every op, and
/// returns the most distinct lines held at once (sampled every 64 ops).
fn run_stream(topo: Topology, cfg: HtmConfig, ops: &[RawOp]) -> usize {
    let mut m = HtmMachine::new(topo, cfg);
    let mut r = RefMachine::new(topo, cfg);
    let n = topo.logical_cpus();
    let (mut squeezed, mut victims) = (Vec::new(), Vec::new());
    let mut peak = 0;
    for (step, &(kind, cpu, line, is_write)) in ops.iter().enumerate() {
        let t = cpu % n;
        let access = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        // Ops whose precondition does not hold turn into a `begin` (or an
        // access, for a `begin` on a busy CPU), so streams stay dense.
        match (kind, r.active[t]) {
            (0..=9 | 11..=12, false) => {
                m.begin_into(t, &mut squeezed);
                assert_eq!(squeezed, r.begin(t), "squeezed by begin({t}) at op {step}");
            }
            (0..=9, true) => {
                let self_abort = m.access_into(t, line, access, &mut victims);
                let (want_abort, want_victims) = r.access(t, line, access);
                assert_eq!(victims, want_victims, "victims of access at op {step}");
                assert_eq!(self_abort, want_abort, "self-abort of access at op {step}");
            }
            (10, _) => {
                m.non_tx_access_into(t, line, access, &mut victims);
                assert_eq!(
                    victims,
                    r.kill_holders(t, line, access),
                    "victims of non-tx access at op {step}"
                );
            }
            (11..=12, true) => {
                m.commit(t);
                r.end(t);
            }
            (13, _) => {
                m.abort(t);
                r.end(t);
            }
            _ => {
                m.kill_all_into(&mut victims);
                assert_eq!(victims, r.kill_all(), "kill_all at op {step}");
            }
        }
        assert_same_state(&m, &r, step);
        if step % 64 == 0 {
            peak = peak.max(r.live_lines());
        }
    }
    peak
}

/// A stream shaped to load the line directory: CPUs `0..in_flight` run
/// transactions of about `footprint` lines each, drawn from a wide line
/// range so that almost every access adds a line. One access in 64 goes
/// to 32 hot lines, which keeps conflicts, and the kills they cause
/// mid-transaction, coming. One access in `write_one_in` is a write.
fn footprint_stream(
    in_flight: usize,
    footprint: u64,
    write_one_in: u64,
    len: usize,
    mut seed: u64,
) -> Vec<RawOp> {
    seed |= 1;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    (0..len)
        .map(|_| {
            let (r, s) = (next(), next());
            let cpu = (r % in_flight as u64) as usize;
            // Roughly `footprint` accesses per commit, and rarely an
            // abort, a non-transactional write or a full kill.
            let kind = match s % (footprint + 3) {
                x if x < footprint => 0,
                x if x == footprint => 11,
                x if x == footprint + 1 => 10,
                _ if s >> 32 & 255 == 0 => 14,
                _ => 13,
            };
            let line = if r >> 20 & 63 == 0 {
                r >> 24 & 31
            } else {
                1_000 + (r >> 24 & 0xffff)
            };
            let is_write = (r >> 44) % write_one_in == 0 || kind == 10;
            (kind, cpu, line, is_write)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Small geometries and a small line domain, so conflicts, capacity
    /// overflows and SMT squeezes are all frequent.
    #[test]
    fn machine_matches_reference(
        topo in 0usize..4,
        geometry in (1usize..9, 1usize..9, 1usize..33),
        sharing in any::<bool>(),
        ops in prop::collection::vec(
            (0u8..15, 0usize..64, 0u64..48, any::<bool>()),
            1..300,
        ),
    ) {
        let (write_sets, write_ways, read_lines) = geometry;
        let cfg = HtmConfig {
            write_sets,
            write_ways,
            read_lines,
            smt_capacity_sharing: sharing,
        };
        run_stream(topology(topo), cfg, &ops);
    }

    /// The paper's geometry, where capacity rarely binds and the stream
    /// exercises conflicts and set bookkeeping instead.
    #[test]
    fn machine_matches_reference_at_default_geometry(
        topo in 0usize..4,
        ops in prop::collection::vec(
            (0u8..15, 0usize..64, 0u64..32, any::<bool>()),
            1..300,
        ),
    ) {
        run_stream(topology(topo), HtmConfig::default(), &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Eight CPUs with yada-sized footprints (over 400 lines each): the
    /// directory holds thousands of lines at its peak.
    #[test]
    fn machine_matches_reference_with_large_footprints(
        seed in any::<u64>(),
    ) {
        let ops = footprint_stream(8, 450, 16, 8 * 450 * 3, seed);
        let peak = run_stream(Topology::haswell_e3(), HtmConfig::default(), &ops);
        prop_assert!(peak > 1_000, "directory barely grew: peak {}", peak);
    }

    /// All 64 CPUs of the 16 × 4 machine in flight at once.
    #[test]
    fn machine_matches_reference_with_64_cpus_in_flight(
        seed in any::<u64>(),
    ) {
        let ops = footprint_stream(64, 48, 24, 64 * 48 * 3, seed);
        let peak = run_stream(Topology::new(16, 4), HtmConfig::default(), &ops);
        prop_assert!(peak > 1_000, "directory barely grew: peak {}", peak);
    }
}

/// CPUs 47 and 63 share the last core of the 64-CPU machine; 63 is the
/// top bit of the in-flight mask.
#[test]
fn highest_cpu_of_a_64_cpu_machine_is_tracked() {
    let ops: Vec<RawOp> = vec![
        (0, 63, 0, false),
        (0, 47, 0, false),
        (3, 63, 5, false),
        (3, 47, 5, true), // kills CPU 63
        (0, 63, 0, false),
        (14, 0, 0, false),
    ];
    run_stream(Topology::new(16, 4), HtmConfig::default(), &ops);
}

#[test]
#[should_panic(expected = "at most 64 logical CPUs")]
fn more_than_64_cpus_is_rejected() {
    HtmMachine::new(Topology::new(33, 2), HtmConfig::default());
}

//! Configuration of the modelled HTM: buffer geometry and cost model.

use seer_sim::Cycles;

/// Geometry of the transactional buffers and the SMT-sharing rule.
///
/// Defaults model the paper's Haswell Xeon E3-1275: a 32 KiB, 8-way L1D with
/// 64-byte lines bounds the *write* set (64 sets × 8 ways); the *read* set
/// survives L1 eviction via the L2-backed tracking TSX implements, so it
/// gets a larger flat budget. When two hyper-threads of one physical core
/// both run transactions, they compete for the same L1/L2, which the model
/// expresses by dividing both budgets by the number of co-resident
/// transactions — the effect Seer's *core locks* exist to fight (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtmConfig {
    /// Number of cache sets available to a transaction's write set.
    pub write_sets: usize,
    /// Associativity (ways) of each write-set cache set.
    pub write_ways: usize,
    /// Total cache-line budget for the read set.
    pub read_lines: usize,
    /// Whether SMT siblings running transactions share (and thus split)
    /// the capacity budgets. Disabling this isolates the capacity model in
    /// tests and ablations.
    pub smt_capacity_sharing: bool,
}

impl Default for HtmConfig {
    fn default() -> Self {
        Self {
            write_sets: 64,
            write_ways: 8,
            read_lines: 4096,
            smt_capacity_sharing: true,
        }
    }
}

impl HtmConfig {
    /// Effective write-set associativity with `co_resident` transactions
    /// active on the same physical core (including the subject itself).
    pub fn effective_ways(&self, co_resident: usize) -> usize {
        if self.smt_capacity_sharing {
            (self.write_ways / co_resident.max(1)).max(1)
        } else {
            self.write_ways
        }
    }

    /// Effective read-set budget with `co_resident` transactions active on
    /// the same physical core (including the subject itself).
    pub fn effective_read_lines(&self, co_resident: usize) -> usize {
        if self.smt_capacity_sharing {
            (self.read_lines / co_resident.max(1)).max(1)
        } else {
            self.read_lines
        }
    }
}

/// Latency model for the simulated machine, in cycles.
///
/// Values are in the range reported for Haswell TSX by Yoo et al. (SC'13)
/// and Diegues et al. (PACT'14): beginning/committing a transaction costs
/// tens of cycles, an abort costs a rollback plus restart penalty, and
/// atomic lock operations cost a cache-coherent RMW.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of `xbegin` (checkpointing registers, entering speculation).
    pub xbegin: Cycles,
    /// Cost of `xend` (commit, making the write set visible).
    pub xend: Cycles,
    /// Penalty charged on abort (discarding the write set, restoring
    /// registers, branching to the abort handler).
    pub abort_penalty: Cycles,
    /// Cost of a compare-and-swap / lock acquisition attempt.
    pub cas: Cycles,
    /// Cost of releasing a lock (store + fence).
    pub lock_release: Cycles,
    /// Hand-off latency between a lock release and a queued waiter resuming.
    pub lock_handoff: Cycles,
    /// Polling interval while waiting on a lock the simulator cannot hand
    /// off directly (watcher wake-ups re-check conditions after this delay).
    pub spin_recheck: Cycles,
    /// Probability per cycle spent inside a transaction of an asynchronous
    /// abort (interrupt, page fault, ring transition) — surfaces as an
    /// `XStatus::other()` abort exactly as TSX reports them.
    pub async_abort_per_cycle: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            xbegin: 45,
            xend: 35,
            abort_penalty: 160,
            cas: 30,
            lock_release: 12,
            lock_handoff: 40,
            spin_recheck: 60,
            async_abort_per_cycle: 2e-8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_model_haswell() {
        let c = HtmConfig::default();
        assert_eq!(c.write_sets * c.write_ways, 512); // 32 KiB / 64 B
        assert!(c.read_lines > c.write_sets * c.write_ways);
    }

    #[test]
    fn smt_sharing_halves_budgets() {
        let c = HtmConfig::default();
        assert_eq!(c.effective_ways(1), 8);
        assert_eq!(c.effective_ways(2), 4);
        assert_eq!(c.effective_read_lines(2), 2048);
    }

    #[test]
    fn sharing_disabled_keeps_full_budget() {
        let c = HtmConfig {
            smt_capacity_sharing: false,
            ..HtmConfig::default()
        };
        assert_eq!(c.effective_ways(2), 8);
        assert_eq!(c.effective_read_lines(2), 4096);
    }

    #[test]
    fn budgets_never_reach_zero() {
        let c = HtmConfig::default();
        assert_eq!(c.effective_ways(100), 1);
        assert!(c.effective_read_lines(100_000) >= 1);
    }

    #[test]
    fn cost_model_is_plausible() {
        let m = CostModel::default();
        assert!(m.abort_penalty > m.xbegin);
        assert!(m.async_abort_per_cycle < 1e-6);
    }
}

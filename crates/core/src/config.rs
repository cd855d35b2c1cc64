//! Seer configuration: mechanism toggles and tuning knobs.
//!
//! Every mechanism the paper ablates in Figures 4 and 5 is a field of
//! [`SeerConfig`], so each variant (profile-only → +tx-locks →
//! +core-locks → +htm-lock-acquisition → +hill-climbing, and §5.3's
//! core-locks-only) is [`SeerConfig::full`] with some fields switched
//! off. The named variants are a preset table in the harness
//! (`seer_harness::PolicyKind`). Every variant starts from the paper's
//! thresholds ([`Thresholds::default`](crate::Thresholds)) and sigma
//! floor ([`MIN_DISCRIMINATIVE_SIGMA`](crate::inference::MIN_DISCRIMINATIVE_SIGMA)).

use seer_sim::Cycles;

/// Instrumentation costs charged to threads, in cycles (the source of the
/// Figure 4 overhead). Scanning `activeTxs` costs `scan_per_slot` per
/// thread slot; announcing costs one store plus pipeline noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingCosts {
    /// Cost of announcing in `activeTxs` at transaction start.
    pub announce: Cycles,
    /// Per-slot cost of scanning `activeTxs` on commit/abort registration.
    pub scan_per_slot: Cycles,
    /// Fixed cost of the matrix row updates per registration.
    pub register_fixed: Cycles,
}

impl Default for ProfilingCosts {
    fn default() -> Self {
        Self {
            announce: 4,
            scan_per_slot: 2,
            register_fixed: 6,
        }
    }
}

/// Full configuration of the Seer scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SeerConfig {
    /// Hardware attempts before the fall-back (paper: 5).
    pub budget: u32,
    /// Acquire the inferred transaction locks on the last attempt.
    pub tx_locks: bool,
    /// Acquire the per-physical-core lock after capacity aborts.
    pub core_locks: bool,
    /// Take multiple locks inside one small hardware transaction
    /// (the multi-CAS optimization) instead of one CAS per lock.
    pub htm_lock_acquisition: bool,
    /// Self-tune `Th1`/`Th2` by stochastic hill climbing.
    pub hill_climbing: bool,
    /// Minimum executions between lock-scheme recomputations
    /// ("enough-samples" pacing of UPDATE-Seer-LOCKS).
    pub update_period_execs: u64,
    /// Minimum executions between hill-climbing evaluations.
    pub climb_period_execs: u64,
    /// Halve (decay) the statistics matrices every this many lock-scheme
    /// updates; `None` accumulates forever (the paper's behaviour).
    /// Decaying lets the inferred scheme *forget* conflict relations that
    /// a phase change made obsolete.
    pub decay_every_updates: Option<u64>,
    /// Instrumentation cost model.
    pub costs: ProfilingCosts,
}

impl Default for SeerConfig {
    fn default() -> Self {
        Self::full()
    }
}

impl SeerConfig {
    /// Full Seer: every mechanism enabled (the paper's headline system).
    pub fn full() -> Self {
        Self {
            budget: 5,
            tx_locks: true,
            core_locks: true,
            htm_lock_acquisition: true,
            hill_climbing: true,
            update_period_execs: 300,
            climb_period_execs: 1_000,
            decay_every_updates: None,
            costs: ProfilingCosts::default(),
        }
    }

    /// Adaptivity extension: full Seer that halves its statistics every
    /// `updates` lock-scheme recomputations, so stale conflict relations
    /// fade after workload phase changes.
    ///
    /// # Panics
    /// If `updates` is zero.
    pub fn with_decay(updates: u64) -> Self {
        assert!(updates > 0, "decay period must be positive");
        Self {
            decay_every_updates: Some(updates),
            ..Self::full()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_enables_everything() {
        let c = SeerConfig::full();
        assert!(c.tx_locks && c.core_locks && c.htm_lock_acquisition && c.hill_climbing);
        assert_eq!(c.budget, 5);
    }
}

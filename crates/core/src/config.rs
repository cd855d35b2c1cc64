//! Seer configuration: mechanism toggles and tuning knobs.
//!
//! Every mechanism the paper ablates in Figure 5 is independently
//! switchable, so the harness can build the cumulative variants
//! (profile-only → +tx-locks → +core-locks → +htm-lock-acquisition →
//! +hill-climbing) from the same implementation.

use seer_sim::Cycles;

use crate::inference::{Thresholds, MIN_DISCRIMINATIVE_SIGMA};

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

/// The tunable scheduling knobs of Seer, gathered in one pure-data
/// struct so external tooling (the `seer@key=value` policy specs of
/// `seer run` and `seer sweep`) can carry them around without knowing
/// about the mechanism toggles in [`SeerConfig`].
///
/// `Default` is pinned to the paper's hand-picked constants, and
/// [`SeerConfig::with_params`]`(SeerParams::default())` equals
/// [`SeerConfig::full`] — the conformance suite holds the replay
/// fixtures to that identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeerParams {
    /// Sampling window: executions between lock-scheme recomputations.
    pub update_period_execs: u64,
    /// Executions between hill-climbing evaluations.
    pub climb_period_execs: u64,
    /// Statistics half-life in lock-scheme updates (`None` = never decay).
    pub decay_every_updates: Option<u64>,
    /// Minimum row standard deviation for the Gaussian percentile cutoff
    /// to be considered discriminative.
    pub min_sigma: f64,
    /// Conjunctive activation threshold (`Th1` of Alg. 5).
    pub th1: f64,
    /// Gaussian percentile threshold (`Th2` of Alg. 5).
    pub th2: f64,
}

impl Default for SeerParams {
    fn default() -> Self {
        let th = Thresholds::default();
        Self {
            update_period_execs: 300,
            climb_period_execs: 1_000,
            decay_every_updates: None,
            min_sigma: MIN_DISCRIMINATIVE_SIGMA,
            th1: th.th1,
            th2: th.th2,
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
    /// Initial (or, with hill climbing off, permanent) thresholds.
    pub thresholds: Thresholds,
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
    /// Minimum row standard deviation below which the Gaussian percentile
    /// cutoff is not discriminative and the conditional check passes
    /// unconditionally (paper:
    /// [`MIN_DISCRIMINATIVE_SIGMA`]).
    pub min_sigma: f64,
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
            thresholds: Thresholds::default(),
            update_period_execs: 300,
            climb_period_execs: 1_000,
            decay_every_updates: None,
            min_sigma: MIN_DISCRIMINATIVE_SIGMA,
            costs: ProfilingCosts::default(),
        }
    }

    /// Full Seer with its scheduling knobs replaced by `params` — the
    /// bridge from the pure-data [`SeerParams`] to a runnable
    /// configuration. Every mechanism toggle matches [`Self::full`], so
    /// `with_params(SeerParams::default()) == full()`.
    pub fn with_params(params: SeerParams) -> Self {
        Self {
            thresholds: Thresholds {
                th1: params.th1,
                th2: params.th2,
            },
            update_period_execs: params.update_period_execs,
            climb_period_execs: params.climb_period_execs,
            decay_every_updates: params.decay_every_updates,
            min_sigma: params.min_sigma,
            ..Self::full()
        }
    }

    /// The scheduling knobs of this configuration, as a [`SeerParams`].
    pub fn params(&self) -> SeerParams {
        SeerParams {
            update_period_execs: self.update_period_execs,
            climb_period_execs: self.climb_period_execs,
            decay_every_updates: self.decay_every_updates,
            min_sigma: self.min_sigma,
            th1: self.thresholds.th1,
            th2: self.thresholds.th2,
        }
    }

    /// The Figure 4 variant: all monitoring, inference and self-tuning
    /// overheads are paid, but no lock is ever acquired.
    pub fn profile_only() -> Self {
        Self {
            tx_locks: false,
            core_locks: false,
            htm_lock_acquisition: false,
            ..Self::full()
        }
    }

    /// Figure 5 cumulative variant: profile-only + transaction locks
    /// (per-CAS acquisition, static thresholds).
    pub fn plus_tx_locks() -> Self {
        Self {
            tx_locks: true,
            core_locks: false,
            htm_lock_acquisition: false,
            hill_climbing: false,
            ..Self::full()
        }
    }

    /// Figure 5 cumulative variant: + core locks.
    pub fn plus_core_locks() -> Self {
        Self {
            core_locks: true,
            ..Self::plus_tx_locks()
        }
    }

    /// Figure 5 cumulative variant: + HTM multi-CAS lock acquisition.
    pub fn plus_htm_locks() -> Self {
        Self {
            htm_lock_acquisition: true,
            ..Self::plus_core_locks()
        }
    }

    /// Figure 5 cumulative variant: + hill climbing — equals [`Self::full`].
    pub fn plus_hill_climbing() -> Self {
        Self {
            hill_climbing: true,
            ..Self::plus_htm_locks()
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

    /// §5.3 ablation: *only* core locks (no transaction locks).
    pub fn core_locks_only() -> Self {
        Self {
            tx_locks: false,
            core_locks: true,
            htm_lock_acquisition: false,
            hill_climbing: false,
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
        assert_eq!(c.thresholds, Thresholds { th1: 0.3, th2: 0.8 });
    }

    #[test]
    fn profile_only_disables_all_locks() {
        let c = SeerConfig::profile_only();
        assert!(!c.tx_locks && !c.core_locks && !c.htm_lock_acquisition);
        // Monitoring costs remain — that is the point of the variant.
        assert!(c.costs.announce > 0);
    }

    #[test]
    fn cumulative_variants_nest() {
        assert!(SeerConfig::plus_tx_locks().tx_locks);
        assert!(!SeerConfig::plus_tx_locks().core_locks);
        assert!(SeerConfig::plus_core_locks().core_locks);
        assert!(!SeerConfig::plus_core_locks().htm_lock_acquisition);
        assert!(SeerConfig::plus_htm_locks().htm_lock_acquisition);
        assert!(!SeerConfig::plus_htm_locks().hill_climbing);
        assert_eq!(SeerConfig::plus_hill_climbing(), SeerConfig::full());
    }

    #[test]
    fn core_locks_only_variant() {
        let c = SeerConfig::core_locks_only();
        assert!(!c.tx_locks && c.core_locks);
    }

    #[test]
    fn default_params_equal_the_paper_configuration() {
        // The identity the replay fixtures lean on: routing the default
        // knobs through the params bridge changes nothing.
        assert_eq!(
            SeerConfig::with_params(SeerParams::default()),
            SeerConfig::full()
        );
        assert_eq!(SeerConfig::full().params(), SeerParams::default());
    }

    #[test]
    fn params_round_trip_through_config() {
        let p = SeerParams {
            update_period_execs: 150,
            climb_period_execs: 600,
            decay_every_updates: Some(16),
            min_sigma: 0.02,
            th1: 0.25,
            th2: 0.9,
        };
        let cfg = SeerConfig::with_params(p);
        assert_eq!(cfg.params(), p);
        // Mechanism toggles stay at the full-Seer settings.
        assert!(cfg.tx_locks && cfg.core_locks && cfg.htm_lock_acquisition && cfg.hill_climbing);
    }
}

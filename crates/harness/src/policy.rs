//! Named scheduler configurations used by the experiments.

use seer::{Seer, SeerConfig, SeerParams};
use seer_baselines::{Ats, Hle, Rtm, Scm};
use seer_runtime::Scheduler;

/// A searched set of Seer scheduling knobs, bit-packed so the enclosing
/// [`PolicyKind`] stays `Copy + Eq + Hash` (floats are carried as their
/// IEEE-754 bit patterns, which [`f64::to_bits`] makes total-ordered for
/// the finite values the tuner produces).
///
/// Round-trips losslessly through the textual policy spec (see
/// [`PolicyKind::spec`]): Rust's `f64` `Display` is shortest-round-trip,
/// so `format!("{v}")` parses back to the identical bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TunedParams {
    update_period_execs: u64,
    climb_period_execs: u64,
    /// `0` encodes "never decay" (`None` in [`SeerParams`]).
    decay_every_updates: u64,
    min_sigma_bits: u64,
    th1_bits: u64,
    th2_bits: u64,
}

impl TunedParams {
    /// Packs `params` for embedding in a [`PolicyKind::SeerTuned`].
    ///
    /// # Panics
    /// If any float knob is non-finite, a period is zero, or a decay of
    /// `Some(0)` sneaks in — all states the validated `ParamSpace` can
    /// never produce.
    pub fn from_params(params: SeerParams) -> Self {
        assert!(params.update_period_execs > 0, "update period must be positive");
        assert!(params.climb_period_execs > 0, "climb period must be positive");
        assert!(params.decay_every_updates != Some(0), "decay period must be positive");
        assert!(
            params.min_sigma.is_finite() && params.th1.is_finite() && params.th2.is_finite(),
            "tuned knobs must be finite"
        );
        Self {
            update_period_execs: params.update_period_execs,
            climb_period_execs: params.climb_period_execs,
            decay_every_updates: params.decay_every_updates.unwrap_or(0),
            min_sigma_bits: params.min_sigma.to_bits(),
            th1_bits: params.th1.to_bits(),
            th2_bits: params.th2.to_bits(),
        }
    }

    /// Unpacks back into the pure-data knob struct.
    pub fn params(self) -> SeerParams {
        SeerParams {
            update_period_execs: self.update_period_execs,
            climb_period_execs: self.climb_period_execs,
            decay_every_updates: match self.decay_every_updates {
                0 => None,
                n => Some(n),
            },
            min_sigma: f64::from_bits(self.min_sigma_bits),
            th1: f64::from_bits(self.th1_bits),
            th2: f64::from_bits(self.th2_bits),
        }
    }

    /// The canonical textual form: every knob, fixed order, shortest
    /// round-trip float rendering. Stable under parse → spec.
    fn spec(self) -> String {
        let p = self.params();
        let decay = match p.decay_every_updates {
            None => "off".to_string(),
            Some(n) => n.to_string(),
        };
        format!(
            "seer@window={},climb={},decay={},min-sigma={},th1={},th2={}",
            p.update_period_execs, p.climb_period_execs, decay, p.min_sigma, p.th1, p.th2
        )
    }

    /// Parses the `key=value` list after `seer@`. Missing keys take the
    /// paper defaults; unknown keys or out-of-range values are errors.
    fn parse_spec(body: &str, original: &str) -> Result<Self, UnknownPolicy> {
        let err = || UnknownPolicy(original.to_string());
        let mut p = SeerParams::default();
        for part in body.split(',') {
            let (key, value) = part.split_once('=').ok_or_else(err)?;
            match key.trim() {
                "window" => {
                    p.update_period_execs = value.parse().map_err(|_| err())?;
                    if p.update_period_execs == 0 {
                        return Err(err());
                    }
                }
                "climb" => {
                    p.climb_period_execs = value.parse().map_err(|_| err())?;
                    if p.climb_period_execs == 0 {
                        return Err(err());
                    }
                }
                "decay" => {
                    p.decay_every_updates = match value.trim() {
                        "off" => None,
                        n => match n.parse().map_err(|_| err())? {
                            0 => return Err(err()),
                            n => Some(n),
                        },
                    };
                }
                "min-sigma" => {
                    p.min_sigma = value.parse().map_err(|_| err())?;
                    if !p.min_sigma.is_finite() || p.min_sigma < 0.0 {
                        return Err(err());
                    }
                }
                "th1" => {
                    p.th1 = value.parse().map_err(|_| err())?;
                    if !(0.0..=1.0).contains(&p.th1) {
                        return Err(err());
                    }
                }
                "th2" => {
                    p.th2 = value.parse().map_err(|_| err())?;
                    if !(0.0..=1.0).contains(&p.th2) {
                        return Err(err());
                    }
                }
                _ => return Err(err()),
            }
        }
        Ok(Self::from_params(p))
    }
}

/// Every scheduler variant the evaluation section exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Hardware lock elision (Figure 3 baseline).
    Hle,
    /// Software retry + wait-on-SGL (Figure 3 baseline).
    Rtm,
    /// Software-assisted conflict management (Figure 3 baseline).
    Scm,
    /// Adaptive transaction scheduling (extra series; Table 1).
    Ats,
    /// Full Seer.
    Seer,
    /// Seer with all monitoring but no lock acquisition (Figure 4).
    SeerProfileOnly,
    /// Figure 5 cumulative variant: + transaction locks.
    SeerPlusTxLocks,
    /// Figure 5 cumulative variant: + core locks.
    SeerPlusCoreLocks,
    /// Figure 5 cumulative variant: + HTM multi-CAS lock acquisition.
    SeerPlusHtmLocks,
    /// Figure 5 cumulative variant: + hill climbing (== full Seer).
    SeerPlusHillClimbing,
    /// §5.3 ablation: core locks only.
    SeerCoreLocksOnly,
    /// Full Seer with searched scheduling knobs (produced by `seer tune`;
    /// not part of [`PolicyKind::ALL`] — the paper matrices only sweep
    /// the named variants).
    SeerTuned(TunedParams),
}

impl PolicyKind {
    /// Every policy variant, in declaration order (used by exhaustive
    /// sweeps such as the conformance replay matrix).
    pub const ALL: [PolicyKind; 11] = [
        PolicyKind::Hle,
        PolicyKind::Rtm,
        PolicyKind::Scm,
        PolicyKind::Ats,
        PolicyKind::Seer,
        PolicyKind::SeerProfileOnly,
        PolicyKind::SeerPlusTxLocks,
        PolicyKind::SeerPlusCoreLocks,
        PolicyKind::SeerPlusHtmLocks,
        PolicyKind::SeerPlusHillClimbing,
        PolicyKind::SeerCoreLocksOnly,
    ];

    /// The four curves of Figure 3, in the paper's legend order.
    pub const FIGURE3: [PolicyKind; 4] = [
        PolicyKind::Hle,
        PolicyKind::Rtm,
        PolicyKind::Scm,
        PolicyKind::Seer,
    ];

    /// The cumulative variants of Figure 5, in presentation order. The
    /// profile-only variant is the figure's baseline (speedup 1.0).
    pub const FIGURE5: [PolicyKind; 5] = [
        PolicyKind::SeerProfileOnly,
        PolicyKind::SeerPlusTxLocks,
        PolicyKind::SeerPlusCoreLocks,
        PolicyKind::SeerPlusHtmLocks,
        PolicyKind::SeerPlusHillClimbing,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Hle => "HLE",
            PolicyKind::Rtm => "RTM",
            PolicyKind::Scm => "SCM",
            PolicyKind::Ats => "ATS",
            PolicyKind::Seer => "Seer",
            PolicyKind::SeerProfileOnly => "Seer(profile-only)",
            PolicyKind::SeerPlusTxLocks => "+ tx-locks",
            PolicyKind::SeerPlusCoreLocks => "+ core-locks",
            PolicyKind::SeerPlusHtmLocks => "+ htm locks",
            PolicyKind::SeerPlusHillClimbing => "+ hill climbing",
            PolicyKind::SeerCoreLocksOnly => "Seer(core-locks-only)",
            PolicyKind::SeerTuned(_) => "Seer(tuned)",
        }
    }

    /// Stable CLI name; round-trips through [`FromStr`](std::str::FromStr)
    /// for every variant in [`PolicyKind::ALL`].
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Hle => "hle",
            PolicyKind::Rtm => "rtm",
            PolicyKind::Scm => "scm",
            PolicyKind::Ats => "ats",
            PolicyKind::Seer => "seer",
            PolicyKind::SeerProfileOnly => "seer-profile-only",
            PolicyKind::SeerPlusTxLocks => "seer-plus-tx-locks",
            PolicyKind::SeerPlusCoreLocks => "seer-plus-core-locks",
            PolicyKind::SeerPlusHtmLocks => "seer-plus-htm-locks",
            PolicyKind::SeerPlusHillClimbing => "seer-plus-hill-climbing",
            PolicyKind::SeerCoreLocksOnly => "seer-core-locks-only",
            PolicyKind::SeerTuned(_) => "seer-tuned",
        }
    }

    /// The full textual spec of this policy: equal to [`Self::name`] for
    /// every named variant, and a parameterized `seer@key=value,...`
    /// string for [`PolicyKind::SeerTuned`]. Always parses back to `self`
    /// through [`FromStr`](std::str::FromStr), which is what lets tuned
    /// policies travel through store keys without any new key kind.
    pub fn spec(self) -> String {
        match self {
            PolicyKind::SeerTuned(t) => t.spec(),
            named => named.name().to_string(),
        }
    }

    /// One-line description for `seer list`.
    pub fn describe(self) -> &'static str {
        match self {
            PolicyKind::Hle => "hardware lock elision (no scheduling)",
            PolicyKind::Rtm => "software retry + wait-on-fallback-lock",
            PolicyKind::Scm => "software-assisted conflict management (aux lock)",
            PolicyKind::Ats => "adaptive transaction scheduling (contention factor)",
            PolicyKind::Seer => "full Seer (probabilistic scheduling)",
            PolicyKind::SeerProfileOnly => "Seer monitoring without lock acquisition",
            PolicyKind::SeerPlusTxLocks => "Figure 5 cumulative: + transaction locks",
            PolicyKind::SeerPlusCoreLocks => "Figure 5 cumulative: + core locks",
            PolicyKind::SeerPlusHtmLocks => "Figure 5 cumulative: + HTM multi-CAS locks",
            PolicyKind::SeerPlusHillClimbing => "Figure 5 cumulative: + hill climbing (= full Seer)",
            PolicyKind::SeerCoreLocksOnly => "Seer with only per-core locks (§5.3 ablation)",
            PolicyKind::SeerTuned(_) => "full Seer with searched knobs (see `seer tune`)",
        }
    }

    /// Instantiates the scheduler for a run with `threads` threads over a
    /// program with `blocks` atomic blocks.
    pub fn build(self, threads: usize, blocks: usize) -> Box<dyn Scheduler> {
        match self {
            PolicyKind::Hle => Box::new(Hle::default()),
            PolicyKind::Rtm => Box::new(Rtm::default()),
            PolicyKind::Scm => Box::new(Scm::default()),
            PolicyKind::Ats => Box::new(Ats::new(threads)),
            PolicyKind::Seer => Box::new(Seer::new(SeerConfig::full(), threads, blocks)),
            PolicyKind::SeerProfileOnly => {
                Box::new(Seer::new(SeerConfig::profile_only(), threads, blocks))
            }
            PolicyKind::SeerPlusTxLocks => {
                Box::new(Seer::new(SeerConfig::plus_tx_locks(), threads, blocks))
            }
            PolicyKind::SeerPlusCoreLocks => {
                Box::new(Seer::new(SeerConfig::plus_core_locks(), threads, blocks))
            }
            PolicyKind::SeerPlusHtmLocks => {
                Box::new(Seer::new(SeerConfig::plus_htm_locks(), threads, blocks))
            }
            PolicyKind::SeerPlusHillClimbing => {
                Box::new(Seer::new(SeerConfig::plus_hill_climbing(), threads, blocks))
            }
            PolicyKind::SeerCoreLocksOnly => {
                Box::new(Seer::new(SeerConfig::core_locks_only(), threads, blocks))
            }
            PolicyKind::SeerTuned(t) => {
                Box::new(Seer::new(SeerConfig::with_params(t.params()), threads, blocks))
            }
        }
    }
}

/// Error returned when a policy name does not match any
/// [`PolicyKind::name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy(pub String);

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown policy {:?} (see `seer list`)", self.0)
    }
}

impl std::error::Error for UnknownPolicy {}

impl std::str::FromStr for PolicyKind {
    type Err = UnknownPolicy;

    /// Parses a [`PolicyKind::name`] case-insensitively, or a full
    /// [`PolicyKind::spec`] — `seer@window=…,climb=…,decay=…,min-sigma=…,
    /// th1=…,th2=…` (each key optional, defaulting to the paper value) —
    /// into a [`PolicyKind::SeerTuned`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        if let Some(body) = lower.strip_prefix("seer@") {
            return TunedParams::parse_spec(body, s).map(PolicyKind::SeerTuned);
        }
        PolicyKind::ALL
            .into_iter()
            .find(|p| p.name() == lower)
            .ok_or_else(|| UnknownPolicy(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_members() {
        let labels: Vec<_> = PolicyKind::FIGURE3.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["HLE", "RTM", "SCM", "Seer"]);
    }

    #[test]
    fn all_policies_build() {
        for p in PolicyKind::ALL {
            let s = p.build(8, 5);
            assert!(s.attempt_budget() > 0, "{} has no budget", p.label());
        }
    }

    #[test]
    fn every_policy_name_round_trips() {
        for p in PolicyKind::ALL {
            assert_eq!(p.name().parse::<PolicyKind>().unwrap(), p, "{}", p.name());
            // Case-insensitive, as the CLI has always accepted.
            let upper = p.name().to_ascii_uppercase();
            assert_eq!(upper.parse::<PolicyKind>().unwrap(), p);
        }
        assert!("nope".parse::<PolicyKind>().is_err());
        let err = "Nope".parse::<PolicyKind>().unwrap_err();
        assert_eq!(err.0, "Nope");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = PolicyKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PolicyKind::ALL.len());
    }

    #[test]
    fn spec_equals_name_for_named_variants() {
        for p in PolicyKind::ALL {
            assert_eq!(p.spec(), p.name());
        }
    }

    #[test]
    fn tuned_spec_round_trips_bit_exactly() {
        let params = seer::SeerParams {
            update_period_execs: 137,
            climb_period_execs: 850,
            decay_every_updates: Some(16),
            min_sigma: 0.012_345_678_901_234_5,
            th1: 0.1 + 0.2, // deliberately not representable "nicely"
            th2: 0.8375,
        };
        let p = PolicyKind::SeerTuned(TunedParams::from_params(params));
        assert_eq!(p.name(), "seer-tuned");
        let spec = p.spec();
        assert!(spec.starts_with("seer@window=137,climb=850,decay=16,"), "{spec}");
        let back: PolicyKind = spec.parse().unwrap();
        assert_eq!(back, p, "shortest-round-trip floats must survive the spec");
        // And the canonical form is a fixed point of parse → spec.
        assert_eq!(back.spec(), spec);
    }

    #[test]
    fn tuned_spec_defaults_missing_keys_to_paper_values() {
        let p: PolicyKind = "seer@decay=32".parse().unwrap();
        let PolicyKind::SeerTuned(t) = p else {
            panic!("expected a tuned policy")
        };
        let expected = seer::SeerParams {
            decay_every_updates: Some(32),
            ..seer::SeerParams::default()
        };
        assert_eq!(t.params(), expected);
        // `decay=off` is the explicit paper behaviour.
        let off: PolicyKind = "seer@decay=off".parse().unwrap();
        let PolicyKind::SeerTuned(t) = off else {
            panic!("expected a tuned policy")
        };
        assert_eq!(t.params(), seer::SeerParams::default());
    }

    #[test]
    fn malformed_tuned_specs_are_rejected() {
        for bad in [
            "seer@",
            "seer@window",
            "seer@window=0",
            "seer@climb=0",
            "seer@decay=0",
            "seer@th1=1.5",
            "seer@th2=-0.1",
            "seer@min-sigma=nan",
            "seer@min-sigma=inf",
            "seer@bogus=1",
            "seer@window=abc",
        ] {
            let err = bad.parse::<PolicyKind>().unwrap_err();
            assert_eq!(err.0, bad, "{bad} must be rejected");
        }
    }

    #[test]
    fn tuned_policy_builds_a_scheduler() {
        let p: PolicyKind = "seer@window=50,th1=0.2".parse().unwrap();
        let s = p.build(4, 3);
        assert!(s.attempt_budget() > 0);
        assert_eq!(p.label(), "Seer(tuned)");
    }

    #[test]
    fn tuned_with_default_params_matches_full_seer_config() {
        let t = TunedParams::from_params(seer::SeerParams::default());
        assert_eq!(
            seer::SeerConfig::with_params(t.params()),
            seer::SeerConfig::full()
        );
    }
}

//! Named scheduler configurations used by the experiments.
//!
//! The paper's Seer variants (Figures 4 and 5, §5.3) are one scheduler
//! with mechanisms switched off, so they are rows of one preset table.

use seer::{Seer, SeerConfig};
use seer_baselines::{Ats, Hle, Rtm, Scm};
use seer_runtime::Scheduler;

/// A named Seer variant: full Seer with the mechanisms that `on` lists
/// switched on or off.
struct Preset {
    name: &'static str,
    label: &'static str,
    describe: &'static str,
    /// Transaction locks, core locks, multi-CAS lock acquisition and hill
    /// climbing, in that order.
    on: [bool; 4],
}

/// The Seer rows of [`PolicyKind::ALL`], in its order; the associated
/// consts of [`PolicyKind`] index it.
const PRESETS: [Preset; 7] = [
    Preset {
        name: "seer",
        label: "Seer",
        describe: "full Seer (probabilistic scheduling)",
        on: [true, true, true, true],
    },
    // The Figure 4 variant: every monitoring, inference and self-tuning
    // cost is paid, but no lock is ever acquired.
    Preset {
        name: "seer-profile-only",
        label: "Seer(profile-only)",
        describe: "Seer monitoring without lock acquisition",
        on: [false, false, false, true],
    },
    Preset {
        name: "seer-plus-tx-locks",
        label: "+ tx-locks",
        describe: "Figure 5 cumulative: + transaction locks",
        on: [true, false, false, false],
    },
    Preset {
        name: "seer-plus-core-locks",
        label: "+ core-locks",
        describe: "Figure 5 cumulative: + core locks",
        on: [true, true, false, false],
    },
    Preset {
        name: "seer-plus-htm-locks",
        label: "+ htm locks",
        describe: "Figure 5 cumulative: + HTM multi-CAS locks",
        on: [true, true, true, false],
    },
    // Runs the same configuration as `seer`. It stays a row of its own
    // because Figure 5's last bar and the replay matrix key their cells
    // by this name; retiring it changes both.
    Preset {
        name: "seer-plus-hill-climbing",
        label: "+ hill climbing",
        describe: "Figure 5 cumulative: + hill climbing (= full Seer)",
        on: [true, true, true, true],
    },
    Preset {
        name: "seer-core-locks-only",
        label: "Seer(core-locks-only)",
        describe: "Seer with only per-core locks (§5.3 ablation)",
        on: [false, true, false, false],
    },
];

/// Which row of the preset table a [`PolicyKind::SeerWith`] runs. Only
/// [`PolicyKind`]'s consts build one, so the index is in the table.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeerSpec(u8);

impl SeerSpec {
    fn preset(self) -> &'static Preset {
        &PRESETS[usize::from(self.0)]
    }

    fn config(self) -> SeerConfig {
        let [tx_locks, core_locks, htm_lock_acquisition, hill_climbing] = self.preset().on;
        SeerConfig {
            tx_locks,
            core_locks,
            htm_lock_acquisition,
            hill_climbing,
            ..SeerConfig::full()
        }
    }
}

/// Shows the spec (`SeerWith(seer-plus-tx-locks)`), not the table index.
impl std::fmt::Debug for SeerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.preset().name)
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
    /// Seer with some of its mechanisms switched off: a row of the preset
    /// table, named by the associated consts (e.g. [`PolicyKind::Seer`]).
    SeerWith(SeerSpec),
}

#[allow(non_upper_case_globals)]
impl PolicyKind {
    /// Full Seer.
    pub const Seer: Self = Self::preset(0);
    /// Seer with all monitoring but no lock acquisition (Figure 4).
    pub const SeerProfileOnly: Self = Self::preset(1);
    /// Figure 5 cumulative variant: + transaction locks.
    pub const SeerPlusTxLocks: Self = Self::preset(2);
    /// Figure 5 cumulative variant: + core locks.
    pub const SeerPlusCoreLocks: Self = Self::preset(3);
    /// Figure 5 cumulative variant: + HTM multi-CAS lock acquisition.
    pub const SeerPlusHtmLocks: Self = Self::preset(4);
    /// Figure 5 cumulative variant: + hill climbing (== full Seer).
    pub const SeerPlusHillClimbing: Self = Self::preset(5);
    /// §5.3 ablation: core locks only.
    pub const SeerCoreLocksOnly: Self = Self::preset(6);

    const fn preset(i: u8) -> Self {
        PolicyKind::SeerWith(SeerSpec(i))
    }
}

impl PolicyKind {
    /// Every named policy (used by exhaustive sweeps such as the
    /// conformance replay matrix).
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

    /// Name, label and description.
    fn text(self) -> (&'static str, &'static str, &'static str) {
        match self {
            PolicyKind::Hle => ("hle", "HLE", "hardware lock elision (no scheduling)"),
            PolicyKind::Rtm => ("rtm", "RTM", "software retry + wait-on-fallback-lock"),
            PolicyKind::Scm => (
                "scm",
                "SCM",
                "software-assisted conflict management (aux lock)",
            ),
            PolicyKind::Ats => (
                "ats",
                "ATS",
                "adaptive transaction scheduling (contention factor)",
            ),
            PolicyKind::SeerWith(s) => {
                let p = s.preset();
                (p.name, p.label, p.describe)
            }
        }
    }

    /// Display label: the figure legend.
    pub fn label(self) -> &'static str {
        self.text().1
    }

    /// Stable CLI name, equal to [`Self::spec`]: it round-trips through
    /// [`FromStr`](std::str::FromStr) for every policy.
    pub fn name(self) -> &'static str {
        self.text().0
    }

    /// The textual spec of this policy, which is its name. It parses
    /// back to `self` through [`FromStr`](std::str::FromStr), so a
    /// printed key or report names the configuration it ran.
    pub fn spec(self) -> String {
        self.name().to_string()
    }

    /// One-line description for `seer list`.
    pub fn describe(self) -> &'static str {
        self.text().2
    }

    /// Instantiates the scheduler for a run with `threads` threads over a
    /// program with `blocks` atomic blocks.
    pub fn build(self, threads: usize, blocks: usize) -> Box<dyn Scheduler> {
        match self {
            PolicyKind::Hle => Box::new(Hle::default()),
            PolicyKind::Rtm => Box::new(Rtm::default()),
            PolicyKind::Scm => Box::new(Scm::default()),
            PolicyKind::Ats => Box::new(Ats::new(threads)),
            PolicyKind::SeerWith(s) => Box::new(Seer::new(s.config(), threads, blocks)),
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

    /// Parses a [`PolicyKind::name`] case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| UnknownPolicy(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(p: PolicyKind) -> SeerConfig {
        let PolicyKind::SeerWith(s) = p else {
            panic!("{} is not a Seer policy", p.name())
        };
        s.config()
    }

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
            assert_eq!(p.spec(), p.name());
            // Case-insensitive, as the CLI has always accepted.
            let upper = p.name().to_ascii_uppercase();
            assert_eq!(upper.parse::<PolicyKind>().unwrap(), p);
        }
        // Former `seer@` knob specs, even one of paper values, are not
        // policies: Seer runs the paper's constants.
        for bad in ["nope", "seer@window=100", "seer@decay=off", "seer@"] {
            assert!(bad.parse::<PolicyKind>().is_err(), "{bad}");
        }
        let err = "Nope".parse::<PolicyKind>().unwrap_err();
        assert_eq!(err.0, "Nope");
    }

    #[test]
    fn names_are_unique() {
        for key in [PolicyKind::name, PolicyKind::label] {
            let mut keys: Vec<_> = PolicyKind::ALL.map(key).to_vec();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), PolicyKind::ALL.len());
        }
    }

    #[test]
    fn preset_consts_name_their_table_rows() {
        let names: Vec<_> = PolicyKind::ALL[4..].iter().map(|p| p.name()).collect();
        let rows: Vec<_> = PRESETS.iter().map(|p| p.name).collect();
        assert_eq!(names, rows);
    }

    #[test]
    fn presets_switch_the_paper_mechanisms() {
        let on = |p| {
            let c = config(p);
            [
                c.tx_locks,
                c.core_locks,
                c.htm_lock_acquisition,
                c.hill_climbing,
            ]
        };
        assert_eq!(on(PolicyKind::Seer), [true; 4]);
        assert_eq!(on(PolicyKind::SeerProfileOnly), [false, false, false, true]);
        // Figure 5's cumulative variants nest.
        assert_eq!(on(PolicyKind::SeerPlusTxLocks), [true, false, false, false]);
        assert_eq!(
            on(PolicyKind::SeerPlusCoreLocks),
            [true, true, false, false]
        );
        assert_eq!(on(PolicyKind::SeerPlusHtmLocks), [true, true, true, false]);
        assert_eq!(
            on(PolicyKind::SeerCoreLocksOnly),
            [false, true, false, false]
        );
        assert_eq!(config(PolicyKind::Seer), SeerConfig::full());
        assert_eq!(config(PolicyKind::SeerPlusHillClimbing), SeerConfig::full());
        // Monitoring costs remain in profile-only: that is the point of
        // the variant.
        assert!(config(PolicyKind::SeerProfileOnly).costs.announce > 0);
    }
}

//! Named scheduler configurations used by the experiments.
//!
//! The paper's Seer variants (Figures 4 and 5, §5.3) are one scheduler
//! with mechanisms switched off, so they are rows of one preset table;
//! a `seer@key=value,...` spec runs full Seer with some of its six
//! scheduling knobs changed.

use std::borrow::Cow;

use seer::{Seer, SeerConfig, Thresholds};
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

/// The keys of a `seer@…` spec, in canonical order. A knob set stores
/// each value as a `u64` in this order, floats as their IEEE-754 bits.
const KEYS: [&str; 6] = ["window", "climb", "decay", "min-sigma", "th1", "th2"];

/// Full Seer's knobs in [`KEYS`] order; a decay of `0` never decays.
fn knobs_of(c: &SeerConfig) -> [u64; 6] {
    [
        c.update_period_execs,
        c.climb_period_execs,
        c.decay_every_updates.unwrap_or(0),
        c.min_sigma.to_bits(),
        c.thresholds.th1.to_bits(),
        c.thresholds.th2.to_bits(),
    ]
}

/// Which Seer configuration a [`PolicyKind::SeerWith`] runs: a row of the
/// preset table, or full Seer with knobs that differ from the paper's.
/// Only [`PolicyKind`]'s consts and [`FromStr`](std::str::FromStr) build
/// one, so a preset index is in the table and a knob set is in range and
/// differs from the paper defaults.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeerSpec(Spec);

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Spec {
    Preset(u8),
    Knobs([u64; 6]),
}

impl SeerSpec {
    fn config(self) -> SeerConfig {
        match self.0 {
            Spec::Preset(i) => {
                let [tx_locks, core_locks, htm_lock_acquisition, hill_climbing] =
                    PRESETS[usize::from(i)].on;
                SeerConfig {
                    tx_locks,
                    core_locks,
                    htm_lock_acquisition,
                    hill_climbing,
                    ..SeerConfig::full()
                }
            }
            Spec::Knobs([window, climb, decay, min_sigma, th1, th2]) => SeerConfig {
                update_period_execs: window,
                climb_period_execs: climb,
                decay_every_updates: (decay > 0).then_some(decay),
                min_sigma: f64::from_bits(min_sigma),
                thresholds: Thresholds {
                    th1: f64::from_bits(th1),
                    th2: f64::from_bits(th2),
                },
                ..SeerConfig::full()
            },
        }
    }

    /// `seer@` and the keys that differ from the paper defaults, in
    /// [`KEYS`] order. Rust's `f64` `Display` is shortest-round-trip, so
    /// the string parses back to the same bits.
    fn knob_spec(knobs: [u64; 6]) -> String {
        let set: Vec<String> = KEYS
            .iter()
            .zip(knobs.into_iter().zip(knobs_of(&SeerConfig::full())))
            .filter(|(_, (v, default))| v != default)
            .map(|(&key, (v, _))| match key {
                // The paper never decays, so a decay that differs from
                // it is a positive count.
                "window" | "climb" | "decay" => format!("{key}={v}"),
                _ => format!("{key}={}", f64::from_bits(v)),
            })
            .collect();
        format!("seer@{}", set.join(","))
    }

    /// Parses the `key=value` list after `seer@`. Missing keys keep the
    /// paper defaults; an unknown or repeated key or an out-of-range value
    /// is `None`.
    fn parse_knobs(body: &str) -> Option<PolicyKind> {
        let defaults = knobs_of(&SeerConfig::full());
        let mut knobs = defaults;
        let mut seen = [false; 6];
        for part in body.split(',') {
            let (key, value) = part.split_once('=')?;
            let (key, value) = (key.trim(), value.trim());
            let i = KEYS.iter().position(|&k| k == key)?;
            if std::mem::replace(&mut seen[i], true) {
                return None;
            }
            knobs[i] = match key {
                "decay" if value == "off" => 0,
                "window" | "climb" | "decay" => value.parse().ok().filter(|&n: &u64| n > 0)?,
                _ => {
                    let v: f64 = value.parse().ok()?;
                    let valid = match key {
                        "min-sigma" => v.is_finite() && v >= 0.0,
                        _ => (0.0..=1.0).contains(&v),
                    };
                    valid.then(|| v.to_bits())?
                }
            };
        }
        Some(if knobs == defaults {
            PolicyKind::Seer
        } else {
            PolicyKind::SeerWith(SeerSpec(Spec::Knobs(knobs)))
        })
    }
}

/// Shows the spec (`SeerWith(seer-plus-tx-locks)`), not the table index.
impl std::fmt::Debug for SeerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&PolicyKind::SeerWith(*self).spec())
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
    /// Seer: a named preset (the associated consts, e.g.
    /// [`PolicyKind::Seer`]) or full Seer with its knobs set by a
    /// `seer@key=value,...` spec, to ablate one knob from `seer run` or
    /// `seer sweep`.
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
        PolicyKind::SeerWith(SeerSpec(Spec::Preset(i)))
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

    /// Name, label and description of a named policy; `None` for a
    /// `seer@…` spec.
    fn text(self) -> Option<(&'static str, &'static str, &'static str)> {
        Some(match self {
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
            PolicyKind::SeerWith(SeerSpec(Spec::Preset(i))) => {
                let p = &PRESETS[usize::from(i)];
                (p.name, p.label, p.describe)
            }
            PolicyKind::SeerWith(SeerSpec(Spec::Knobs(_))) => return None,
        })
    }

    /// Display label: the figure legend of a named policy, the canonical
    /// spec of a `seer@…` policy.
    pub fn label(self) -> Cow<'static, str> {
        match self.text() {
            Some((_, label, _)) => label.into(),
            None => self.spec().into(),
        }
    }

    /// Stable CLI name, equal to [`Self::spec`]: it round-trips through
    /// [`FromStr`](std::str::FromStr) for every policy.
    pub fn name(self) -> Cow<'static, str> {
        match self.text() {
            Some((name, ..)) => name.into(),
            None => self.spec().into(),
        }
    }

    /// The full textual spec of this policy: its name for a named policy,
    /// and `seer@` followed by only the knobs that differ from the paper
    /// defaults, in a fixed order, for a `seer@…` policy. Always parses
    /// back to `self` through [`FromStr`](std::str::FromStr), so a printed
    /// key or report names the configuration it ran.
    pub fn spec(self) -> String {
        match self {
            PolicyKind::SeerWith(SeerSpec(Spec::Knobs(knobs))) => SeerSpec::knob_spec(knobs),
            named => named.name().into_owned(),
        }
    }

    /// One-line description for `seer list`.
    pub fn describe(self) -> &'static str {
        match self.text() {
            Some((.., describe)) => describe,
            None => "full Seer with its knobs set by a seer@key=value spec",
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

    /// Parses a [`PolicyKind::name`] case-insensitively, or a spec
    /// `seer@window=…,climb=…,decay=…,min-sigma=…,th1=…,th2=…` (each key
    /// optional and at most once, defaulting to the paper value). A spec
    /// that sets only paper values is [`PolicyKind::Seer`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let parsed = match lower.strip_prefix("seer@") {
            Some(body) => SeerSpec::parse_knobs(body),
            None => PolicyKind::ALL.into_iter().find(|p| p.name() == lower),
        };
        parsed.ok_or_else(|| UnknownPolicy(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Knob specs that parse to policies outside [`PolicyKind::ALL`].
    const KNOB_SPECS: [&str; 4] = [
        "seer@window=100",
        "seer@window=5000",
        "seer@climb=500,decay=8,th2=0.9",
        "seer@window=137,climb=850,decay=16,min-sigma=0.0123456789012345,\
         th1=0.30000000000000004,th2=0.8375",
    ];

    fn every_policy() -> Vec<PolicyKind> {
        let knobs = KNOB_SPECS.iter().map(|s| s.parse::<PolicyKind>().unwrap());
        PolicyKind::ALL.into_iter().chain(knobs).collect()
    }

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
        for p in every_policy() {
            let s = p.build(8, 5);
            assert!(s.attempt_budget() > 0, "{} has no budget", p.label());
        }
    }

    #[test]
    fn every_policy_name_round_trips() {
        for p in every_policy() {
            assert_eq!(p.name().parse::<PolicyKind>().unwrap(), p, "{}", p.name());
            assert_eq!(p.spec(), p.name());
            // Case-insensitive, as the CLI has always accepted.
            let upper = p.name().to_ascii_uppercase();
            assert_eq!(upper.parse::<PolicyKind>().unwrap(), p);
        }
        // A `seer@…` policy's label is its spec too, so a sweep heading
        // or a run report names the configuration it ran.
        for spec in KNOB_SPECS {
            let p: PolicyKind = spec.parse().unwrap();
            assert_eq!((p.spec(), p.label()), (spec.to_string(), spec.into()));
        }
        assert!("nope".parse::<PolicyKind>().is_err());
        let err = "Nope".parse::<PolicyKind>().unwrap_err();
        assert_eq!(err.0, "Nope");
    }

    #[test]
    fn names_are_unique() {
        let policies = every_policy();
        for key in [PolicyKind::name, PolicyKind::label] {
            let mut keys: Vec<_> = policies.iter().map(|&p| key(p)).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), policies.len());
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

    #[test]
    fn knob_spec_round_trips_bit_exactly() {
        let p: PolicyKind = KNOB_SPECS[3].parse().unwrap();
        let c = config(p);
        assert_eq!((c.update_period_execs, c.climb_period_execs), (137, 850));
        assert_eq!(c.decay_every_updates, Some(16));
        assert_eq!(c.min_sigma.to_bits(), 0.012_345_678_901_234_5f64.to_bits());
        // Deliberately not representable "nicely".
        assert_eq!(c.thresholds.th1.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(c.thresholds.th2.to_bits(), 0.8375f64.to_bits());
        // Mechanism toggles stay at the full-Seer settings.
        assert!(c.tx_locks && c.core_locks && c.htm_lock_acquisition && c.hill_climbing);
        assert_eq!(knobs_of(&c), knobs_of(&config(p.spec().parse().unwrap())));
    }

    #[test]
    fn knob_spec_names_only_the_knobs_that_differ() {
        let p: PolicyKind = "seer@decay=32".parse().unwrap();
        assert_eq!(config(p), SeerConfig::with_decay(32));
        // Fixed key order, whatever order the input used.
        let p: PolicyKind = "seer@th2=0.9,window=100".parse().unwrap();
        assert_eq!(p.spec(), "seer@window=100,th2=0.9");
        // A spec of paper values (`decay=off` is the paper behaviour) is
        // full Seer, under its name.
        for paper in [
            "seer@decay=off",
            "seer@window=300,th1=0.3",
            "seer@climb=1000",
        ] {
            assert_eq!(paper.parse::<PolicyKind>().unwrap(), PolicyKind::Seer);
        }
    }

    #[test]
    fn knob_values_are_trimmed() {
        let spaced: PolicyKind = "seer@window= 100 , th1 = 0.2,decay= off".parse().unwrap();
        assert_eq!(spaced.spec(), "seer@window=100,th1=0.2");
    }

    #[test]
    fn malformed_knob_specs_are_rejected() {
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
            "seer@window=5,window=7",
            "seer@decay=off,decay=4",
        ] {
            let err = bad.parse::<PolicyKind>().unwrap_err();
            assert_eq!(err.0, bad, "{bad} must be rejected");
        }
    }
}

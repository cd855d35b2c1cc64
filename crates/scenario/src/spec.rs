//! Scenario scripts: pure-data descriptions of non-stationary runs.
//!
//! A [`ScenarioSpec`] is the declarative half of the scenario engine: a
//! named base workload plus three timed tracks — [`PhaseSpec`] (workload
//! regime changes), [`ChurnSpec`] (thread park/unpark), [`FaultSpec`]
//! (injected disturbances) — all stamped in *virtual cycles*. A spec
//! contains no behaviour: [`ScenarioSpec::compile`] lowers it to the
//! driver's [`TimedDirective`] script, which delivers every disturbance
//! through the discrete-event queue. No wall-clock time is consulted
//! anywhere, so a scenario run is a pure function of
//! `(spec, scheduler, seed)` and replays bit-identically.
//!
//! Specs round-trip through the harness's dependency-free [`Json`] tree
//! ([`ScenarioSpec::to_json`] / [`ScenarioSpec::from_json`]), which is how
//! `seer scenario run --spec file.json` loads custom scripts.

use seer_harness::{Json, ToJson};
use seer_runtime::{Directive, SchedFault, TimedDirective};
use seer_sim::{Cycles, ThreadId};
use seer_stamp::Benchmark;

/// Every benchmark a scenario can name, in `Benchmark` declaration order.
const ALL_BENCHMARKS: [Benchmark; 10] = [
    Benchmark::Genome,
    Benchmark::Intruder,
    Benchmark::KmeansHigh,
    Benchmark::KmeansLow,
    Benchmark::Ssca2,
    Benchmark::VacationHigh,
    Benchmark::VacationLow,
    Benchmark::Yada,
    Benchmark::HashmapLow,
    Benchmark::Labyrinth,
];

/// Parses a [`Benchmark::name`] string.
pub fn benchmark_from_name(name: &str) -> Option<Benchmark> {
    ALL_BENCHMARKS.into_iter().find(|b| b.name() == name)
}

/// One workload regime. Phase 0 starts at cycle 0; later phases take
/// effect when the driver pops their `Directive::Phase` event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Virtual cycle at which the phase begins (phase 0 must use 0).
    pub at: Cycles,
    /// Benchmark mix for the phase; `None` keeps the spec's base
    /// benchmark.
    pub benchmark: Option<Benchmark>,
    /// Hot-set skew in `(0, 1]`: shared-line offsets are compressed by
    /// this factor, so values below 1 concentrate the accesses of every
    /// block on a shrinking hot set. 1.0 leaves traces untouched.
    pub skew: f64,
    /// Multiplier on per-transaction think time (> 0; 1.0 = unchanged).
    pub think_scale: f64,
}

impl PhaseSpec {
    /// The identity phase at cycle 0: base benchmark, no skew, no think
    /// scaling.
    pub fn stationary() -> Self {
        PhaseSpec {
            at: 0,
            benchmark: None,
            skew: 1.0,
            think_scale: 1.0,
        }
    }
}

/// One thread-churn event: park (descheduled, mid-run) or unpark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Virtual cycle of the event.
    pub at: Cycles,
    /// The churned thread.
    pub thread: ThreadId,
    /// `true` parks the thread; `false` unparks it.
    pub park: bool,
}

/// An injected disturbance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Wipe the scheduler's learned statistics (stats loss).
    WipeStats,
    /// Drop the next `rounds` due inference rounds (stats staleness).
    DelayInference {
        /// Number of due rounds to drop.
        rounds: u64,
    },
    /// Overwrite the inference thresholds (perturbation; the scheduler's
    /// hill climber must re-baseline, see `HillClimber::nudge`).
    KickThresholds {
        /// New Th1.
        th1: f64,
        /// New Th2.
        th2: f64,
    },
    /// Stall the current lock holder (or the busiest eligible thread) for
    /// a fixed number of cycles while its locks stay held.
    StallLockHolder {
        /// Stall length in cycles.
        cycles: Cycles,
    },
    /// Shrink the HTM capacity budgets for a bounded burst, then restore
    /// the configured geometry.
    CapacityShrink {
        /// Clamp on set associativity (ways), if any.
        ways: Option<usize>,
        /// Clamp on the flat read-set line budget, if any.
        read_lines: Option<usize>,
        /// Cycles until the configured budgets are restored.
        restore_after: Cycles,
    },
}

impl FaultKind {
    /// Stable kebab-case label (JSON `"kind"` field and report labels).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::WipeStats => "wipe-stats",
            FaultKind::DelayInference { .. } => "delay-inference",
            FaultKind::KickThresholds { .. } => "kick-thresholds",
            FaultKind::StallLockHolder { .. } => "stall-lock-holder",
            FaultKind::CapacityShrink { .. } => "capacity-shrink",
        }
    }
}

/// One timed fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Virtual cycle at which the fault fires.
    pub at: Cycles,
    /// The disturbance.
    pub fault: FaultKind,
}

/// A complete scenario: base workload plus the three disturbance tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (report key and CLI handle).
    pub name: String,
    /// Base benchmark (phase 0's mix unless overridden).
    pub benchmark: Benchmark,
    /// Simulated threads (1..=8 on the paper machine).
    pub threads: usize,
    /// Scale factor on the base benchmark's default transactions per
    /// thread; the resulting quota is the whole-run per-thread budget
    /// regardless of where phase boundaries fall.
    pub scale: f64,
    /// Width of the recovery-scoring windows, in cycles.
    pub window: Cycles,
    /// Workload regimes; `phases[0]` must start at cycle 0.
    pub phases: Vec<PhaseSpec>,
    /// Thread churn schedule.
    pub churn: Vec<ChurnSpec>,
    /// Fault injections.
    pub faults: Vec<FaultSpec>,
}

impl ScenarioSpec {
    /// A stationary single-phase scenario (the neutral starting point the
    /// built-in library and tests extend).
    pub fn stationary(
        name: impl Into<String>,
        benchmark: Benchmark,
        threads: usize,
        scale: f64,
        window: Cycles,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            benchmark,
            threads,
            scale,
            window,
            phases: vec![PhaseSpec::stationary()],
            churn: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Checks every structural invariant a spec must satisfy before it can
    /// be compiled, returning the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if self.threads == 0 || self.threads > 8 {
            return Err(format!(
                "threads must be 1..=8 on the paper machine, got {}",
                self.threads
            ));
        }
        seer_stamp::check_scale(self.scale)?;
        if self.window == 0 {
            return Err("window width must be positive".into());
        }
        if self.phases.is_empty() {
            return Err("a scenario needs at least one phase".into());
        }
        if self.phases[0].at != 0 {
            return Err(format!(
                "phase 0 must start at cycle 0, got {}",
                self.phases[0].at
            ));
        }
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 && p.at <= self.phases[i - 1].at {
                return Err(format!(
                    "phase {i} at cycle {} does not follow phase {} at cycle {}",
                    p.at,
                    i - 1,
                    self.phases[i - 1].at
                ));
            }
            if !(p.skew > 0.0 && p.skew <= 1.0) {
                return Err(format!("phase {i}: skew must be in (0, 1], got {}", p.skew));
            }
            if !(p.think_scale > 0.0 && p.think_scale.is_finite()) {
                return Err(format!(
                    "phase {i}: think_scale must be positive and finite, got {}",
                    p.think_scale
                ));
            }
        }
        // A thread parked and never unparked leaves the run unable to
        // finish (the driver refuses to drain the queue with live
        // threads), so the churn track must return every thread to the
        // unparked state.
        let mut parked = vec![false; self.threads];
        let mut order: Vec<&ChurnSpec> = self.churn.iter().collect();
        order.sort_by_key(|c| c.at);
        for (i, c) in self.churn.iter().enumerate() {
            if c.thread >= self.threads {
                return Err(format!(
                    "churn event {i}: thread {} out of range (threads = {})",
                    c.thread, self.threads
                ));
            }
        }
        for c in order {
            parked[c.thread] = c.park;
        }
        if let Some(t) = parked.iter().position(|&p| p) {
            return Err(format!(
                "thread {t} is parked by the churn schedule but never unparked"
            ));
        }
        for (i, f) in self.faults.iter().enumerate() {
            match f.fault {
                FaultKind::WipeStats => {}
                FaultKind::DelayInference { rounds } => {
                    if rounds == 0 {
                        return Err(format!("fault {i}: delay-inference needs rounds >= 1"));
                    }
                }
                FaultKind::KickThresholds { th1, th2 } => {
                    if !th1.is_finite() || !th2.is_finite() {
                        return Err(format!(
                            "fault {i}: kick-thresholds needs finite values, got ({th1}, {th2})"
                        ));
                    }
                }
                FaultKind::StallLockHolder { cycles } => {
                    if cycles == 0 {
                        return Err(format!("fault {i}: stall-lock-holder needs cycles >= 1"));
                    }
                }
                FaultKind::CapacityShrink {
                    ways,
                    read_lines,
                    restore_after,
                } => {
                    if ways.is_none() && read_lines.is_none() {
                        return Err(format!(
                            "fault {i}: capacity-shrink must clamp ways and/or read_lines"
                        ));
                    }
                    if ways == Some(0) || read_lines == Some(0) {
                        return Err(format!("fault {i}: capacity clamps must be >= 1"));
                    }
                    if restore_after == 0 {
                        return Err(format!("fault {i}: restore_after must be >= 1"));
                    }
                    if f.at.checked_add(restore_after).is_none() {
                        return Err(format!(
                            "fault {i}: restore time {} + {restore_after} overflows the cycle counter",
                            f.at
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Lowers the spec to the driver's timed-directive script, sorted by
    /// firing time (stable, so same-time directives keep track order:
    /// phases, then churn, then faults).
    pub fn compile(&self) -> Vec<TimedDirective> {
        let td = |at, directive| TimedDirective { at, directive };
        let mut script = Vec::new();
        for (idx, p) in self.phases.iter().enumerate().skip(1) {
            script.push(td(p.at, Directive::Phase(idx)));
        }
        for c in &self.churn {
            let directive = if c.park {
                Directive::Park(c.thread)
            } else {
                Directive::Unpark(c.thread)
            };
            script.push(td(c.at, directive));
        }
        for f in &self.faults {
            match f.fault {
                FaultKind::WipeStats => {
                    script.push(td(f.at, Directive::Sched(SchedFault::WipeStats)));
                }
                FaultKind::DelayInference { rounds } => {
                    script.push(td(
                        f.at,
                        Directive::Sched(SchedFault::DelayInference { rounds }),
                    ));
                }
                FaultKind::KickThresholds { th1, th2 } => {
                    script.push(td(
                        f.at,
                        Directive::Sched(SchedFault::KickThresholds { th1, th2 }),
                    ));
                }
                FaultKind::StallLockHolder { cycles } => {
                    script.push(td(f.at, Directive::StallLockHolder { cycles }));
                }
                FaultKind::CapacityShrink {
                    ways,
                    read_lines,
                    restore_after,
                } => {
                    script.push(td(f.at, Directive::Capacity { ways, read_lines }));
                    script.push(td(
                        f.at + restore_after,
                        Directive::Capacity {
                            ways: None,
                            read_lines: None,
                        },
                    ));
                }
            }
        }
        script.sort_by_key(|t| t.at);
        script
    }

    /// The labelled disturbance times recovery is scored against: phase
    /// boundaries, faults, and park events, sorted by time and coalesced —
    /// events closer than one scoring window to the previous kept
    /// disturbance fold into it (a churn storm scores as one disturbance,
    /// not one per parked thread).
    pub fn disturbances(&self) -> Vec<(Cycles, String)> {
        let mut raw: Vec<(Cycles, String)> = Vec::new();
        for (idx, p) in self.phases.iter().enumerate().skip(1) {
            raw.push((p.at, format!("phase-{idx}")));
        }
        for c in &self.churn {
            if c.park {
                raw.push((c.at, format!("park-t{}", c.thread)));
            }
        }
        for f in &self.faults {
            raw.push((f.at, f.fault.label().to_string()));
        }
        raw.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut out: Vec<(Cycles, String)> = Vec::new();
        for (at, label) in raw {
            match out.last() {
                Some((kept, _)) if at - kept < self.window => {}
                _ => out.push((at, label)),
            }
        }
        out
    }

    /// Parses a spec from JSON text (see [`ScenarioSpec::from_json`]).
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        let json = Json::parse(text)?;
        ScenarioSpec::from_json(&json)
    }

    /// Builds a spec from a parsed [`Json`] tree. The `phases`, `churn`
    /// and `faults` members may be omitted (a single stationary phase and
    /// empty tracks); everything else is required. The result is
    /// validated.
    pub fn from_json(json: &Json) -> Result<ScenarioSpec, String> {
        let name = json.str_field("name")?.to_string();
        let bench_name = json.str_field("benchmark")?;
        let benchmark = benchmark_from_name(bench_name)
            .ok_or_else(|| format!("unknown benchmark {bench_name:?}"))?;
        let threads = json.u64_field("threads")? as usize;
        let scale = json.f64_field("scale")?;
        let window = json.u64_field("window")?;
        let mut phases = Vec::new();
        match json.get("phases") {
            None => phases.push(PhaseSpec::stationary()),
            Some(v) => {
                let items = v.as_array().ok_or("\"phases\" must be an array")?;
                for item in items {
                    let benchmark = match item.get("benchmark") {
                        None | Some(Json::Null) => None,
                        Some(b) => {
                            let n = b.as_str().ok_or("phase benchmark must be a string")?;
                            Some(
                                benchmark_from_name(n)
                                    .ok_or_else(|| format!("unknown benchmark {n:?}"))?,
                            )
                        }
                    };
                    phases.push(PhaseSpec {
                        at: item.u64_field("at")?,
                        benchmark,
                        skew: opt_f64(item, "skew", 1.0)?,
                        think_scale: opt_f64(item, "think_scale", 1.0)?,
                    });
                }
            }
        }
        let mut churn = Vec::new();
        if let Some(v) = json.get("churn") {
            let items = v.as_array().ok_or("\"churn\" must be an array")?;
            for item in items {
                churn.push(ChurnSpec {
                    at: item.u64_field("at")?,
                    thread: item.u64_field("thread")? as ThreadId,
                    park: item.bool_field("park")?,
                });
            }
        }
        let mut faults = Vec::new();
        if let Some(v) = json.get("faults") {
            let items = v.as_array().ok_or("\"faults\" must be an array")?;
            for item in items {
                let at = item.u64_field("at")?;
                let kind = item.str_field("kind")?;
                let fault = match kind {
                    "wipe-stats" => FaultKind::WipeStats,
                    "delay-inference" => FaultKind::DelayInference {
                        rounds: item.u64_field("rounds")?,
                    },
                    "kick-thresholds" => FaultKind::KickThresholds {
                        th1: item.f64_field("th1")?,
                        th2: item.f64_field("th2")?,
                    },
                    "stall-lock-holder" => FaultKind::StallLockHolder {
                        cycles: item.u64_field("cycles")?,
                    },
                    "capacity-shrink" => FaultKind::CapacityShrink {
                        ways: opt_usize(item, "ways")?,
                        read_lines: opt_usize(item, "read_lines")?,
                        restore_after: item.u64_field("restore_after")?,
                    },
                    other => return Err(format!("unknown fault kind {other:?}")),
                };
                faults.push(FaultSpec { at, fault });
            }
        }
        let spec = ScenarioSpec {
            name,
            benchmark,
            threads,
            scale,
            window,
            phases,
            churn,
            faults,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes the spec; [`ScenarioSpec::from_json`] round-trips it.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("name", self.name.to_json()),
            ("benchmark", self.benchmark.name().to_json()),
            ("threads", self.threads.to_json()),
            ("scale", Json::Num(self.scale)),
            ("window", self.window.to_json()),
            (
                "phases",
                Json::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::object([
                                ("at", p.at.to_json()),
                                (
                                    "benchmark",
                                    match p.benchmark {
                                        Some(b) => b.name().to_json(),
                                        None => Json::Null,
                                    },
                                ),
                                ("skew", Json::Num(p.skew)),
                                ("think_scale", Json::Num(p.think_scale)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "churn",
                Json::Array(
                    self.churn
                        .iter()
                        .map(|c| {
                            Json::object([
                                ("at", c.at.to_json()),
                                ("thread", c.thread.to_json()),
                                ("park", c.park.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "faults",
                Json::Array(
                    self.faults
                        .iter()
                        .map(|f| {
                            let mut fields = vec![
                                ("at".to_string(), f.at.to_json()),
                                ("kind".to_string(), f.fault.label().to_json()),
                            ];
                            match f.fault {
                                FaultKind::WipeStats => {}
                                FaultKind::DelayInference { rounds } => {
                                    fields.push(("rounds".into(), rounds.to_json()));
                                }
                                FaultKind::KickThresholds { th1, th2 } => {
                                    fields.push(("th1".into(), Json::Num(th1)));
                                    fields.push(("th2".into(), Json::Num(th2)));
                                }
                                FaultKind::StallLockHolder { cycles } => {
                                    fields.push(("cycles".into(), cycles.to_json()));
                                }
                                FaultKind::CapacityShrink {
                                    ways,
                                    read_lines,
                                    restore_after,
                                } => {
                                    fields.push(("ways".into(), ways.to_json()));
                                    fields.push(("read_lines".into(), read_lines.to_json()));
                                    fields.push(("restore_after".into(), restore_after.to_json()));
                                }
                            }
                            Json::Object(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn opt_f64(json: &Json, key: &str, default: f64) -> Result<f64, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| format!("non-numeric {key:?}")),
    }
}

fn opt_usize(json: &Json, key: &str) -> Result<Option<usize>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|u| Some(u as usize))
            .ok_or_else(|| format!("non-integer {key:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        let mut spec = ScenarioSpec::stationary("sample", Benchmark::KmeansHigh, 4, 0.5, 100_000);
        spec.phases.push(PhaseSpec {
            at: 300_000,
            benchmark: Some(Benchmark::VacationHigh),
            skew: 0.5,
            think_scale: 2.0,
        });
        spec.churn.push(ChurnSpec {
            at: 150_000,
            thread: 1,
            park: true,
        });
        spec.churn.push(ChurnSpec {
            at: 250_000,
            thread: 1,
            park: false,
        });
        spec.faults.push(FaultSpec {
            at: 400_000,
            fault: FaultKind::CapacityShrink {
                ways: Some(1),
                read_lines: Some(8),
                restore_after: 50_000,
            },
        });
        spec.faults.push(FaultSpec {
            at: 200_000,
            fault: FaultKind::KickThresholds { th1: 0.9, th2: 0.2 },
        });
        spec
    }

    #[test]
    fn sample_spec_validates_and_compiles_sorted() {
        let spec = sample();
        spec.validate().expect("sample must validate");
        let script = spec.compile();
        assert_eq!(script.len(), 6); // phase + 2 churn + kick + shrink + restore
        for pair in script.windows(2) {
            assert!(pair[0].at <= pair[1].at, "script must be time-sorted");
        }
        assert_eq!(
            script.last().unwrap().directive,
            Directive::Capacity {
                ways: None,
                read_lines: None
            },
            "capacity shrink must compile a restoring directive"
        );
    }

    #[test]
    fn json_round_trip_is_identity() {
        let spec = sample();
        let text = spec.to_json().to_string_pretty();
        let back = ScenarioSpec::parse(&text).expect("round-trip parse");
        assert_eq!(back, spec);
        // Compact form too (the JSONL-safe encoding).
        let back2 = ScenarioSpec::parse(&spec.to_json().to_string_compact()).unwrap();
        assert_eq!(back2, spec);
    }

    #[test]
    fn validation_rejects_structural_errors() {
        let mut s = sample();
        s.phases[0].at = 10;
        assert!(s.validate().unwrap_err().contains("phase 0"));

        let mut s = sample();
        s.phases[1].at = 0;
        assert!(s.validate().unwrap_err().contains("does not follow"));

        let mut s = sample();
        s.churn.pop(); // drop the unpark: thread 1 stays parked
        assert!(s.validate().unwrap_err().contains("never unparked"));

        let mut s = sample();
        s.churn[0].thread = 9;
        assert!(s.validate().unwrap_err().contains("out of range"));

        let mut s = sample();
        s.faults[0].fault = FaultKind::CapacityShrink {
            ways: None,
            read_lines: None,
            restore_after: 10,
        };
        assert!(s.validate().unwrap_err().contains("capacity-shrink"));

        let mut s = sample();
        s.window = 0;
        assert!(s.validate().is_err());

        let mut s = sample();
        s.scale = 0.0;
        assert!(s.validate().is_err());
        s.scale = 1e300;
        assert!(s.validate().unwrap_err().contains("at most"));

        let mut s = sample();
        s.phases[1].skew = 0.0;
        assert!(s.validate().unwrap_err().contains("skew"));
    }

    #[test]
    fn from_json_rejects_unknown_names() {
        let err = ScenarioSpec::parse(
            r#"{"name":"x","benchmark":"nope","threads":2,"scale":1.0,"window":1000}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
        let err = ScenarioSpec::parse(
            r#"{"name":"x","benchmark":"ssca2","threads":2,"scale":1.0,"window":1000,
                "faults":[{"at":5,"kind":"meteor-strike"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");
    }

    #[test]
    fn from_json_rejects_an_unbounded_scale() {
        // A finite but enormous scale saturates every transaction count
        // exactly like `inf`; the spec is refused before anything runs.
        for scale in ["1e300", "1000.5", "0"] {
            let err = ScenarioSpec::parse(&format!(
                r#"{{"name":"x","benchmark":"ssca2","threads":2,"scale":{scale},"window":1000}}"#
            ))
            .unwrap_err();
            assert!(
                err.contains("scale must be positive, finite and at most 1000"),
                "{err}"
            );
        }
    }

    #[test]
    fn minimal_json_defaults_to_stationary() {
        let spec = ScenarioSpec::parse(
            r#"{"name":"mini","benchmark":"ssca2","threads":2,"scale":1.0,"window":1000}"#,
        )
        .unwrap();
        assert_eq!(spec.phases, vec![PhaseSpec::stationary()]);
        assert!(spec.churn.is_empty());
        assert!(spec.faults.is_empty());
        assert!(
            spec.compile().is_empty(),
            "stationary specs compile to no script"
        );
    }

    #[test]
    fn disturbances_coalesce_within_one_window() {
        let mut spec = ScenarioSpec::stationary("d", Benchmark::Ssca2, 4, 1.0, 100_000);
        for (i, at) in [(1usize, 200_000u64), (2, 220_000), (3, 240_000)] {
            spec.churn.push(ChurnSpec {
                at,
                thread: i,
                park: true,
            });
            spec.churn.push(ChurnSpec {
                at: at + 400_000,
                thread: i,
                park: false,
            });
        }
        spec.faults.push(FaultSpec {
            at: 900_000,
            fault: FaultKind::WipeStats,
        });
        let d = spec.disturbances();
        assert_eq!(d.len(), 2, "storm coalesces into one disturbance: {d:?}");
        assert_eq!(d[0].0, 200_000);
        assert_eq!(d[1].1, "wipe-stats");
    }
}

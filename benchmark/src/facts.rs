//! Correctness: the simulated facts every cell must reproduce.
//!
//! A cell fails when it panics, is truncated, breaks a conservation law,
//! commits other than `threads × scaled_txs` transactions, or reports
//! facts that differ from `expected/<workload>.txt` (written for seeds 0
//! and 1 by `--bless`) or from its own first pass. The facts leave
//! `trace_hash` out on purpose: a change to the event-schedule digest is
//! not a change in behaviour.

use std::collections::HashMap;
use std::fmt;

use seer_runtime::RunMetrics;

use crate::{run_plain, CellSpec, WorkloadDef};

/// The simulated outcome of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    /// DES events dispatched.
    pub events: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Hardware attempts started.
    pub htm_attempts: u64,
    /// Aborts of every cause.
    pub aborts: u64,
    /// SGL fall-backs taken.
    pub fallbacks: u64,
    /// Simulated cycles until the last thread finished.
    pub makespan: u64,
}

impl Facts {
    /// The facts of a finished run.
    pub fn of(m: &RunMetrics) -> Self {
        Self {
            events: m.events,
            commits: m.commits,
            htm_attempts: m.htm_attempts,
            aborts: m.aborts.total(),
            fallbacks: m.fallbacks,
            makespan: m.makespan,
        }
    }

    fn parse(fields: &[&str]) -> Option<Self> {
        let n: Vec<u64> = fields
            .iter()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        match n[..] {
            [events, commits, htm_attempts, aborts, fallbacks, makespan] => Some(Self {
                events,
                commits,
                htm_attempts,
                aborts,
                fallbacks,
                makespan,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for Facts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {} {}",
            self.events,
            self.commits,
            self.htm_attempts,
            self.aborts,
            self.fallbacks,
            self.makespan
        )
    }
}

/// Checks a finished run of `cell` and returns its facts.
pub fn check_run(cell: &CellSpec, m: &RunMetrics) -> Result<Facts, String> {
    if m.truncated {
        return Err("run truncated".to_string());
    }
    let violations = m.check_conservation();
    if !violations.is_empty() {
        return Err(format!("conservation: {}", violations.join("; ")));
    }
    if m.commits != cell.expected_commits() {
        return Err(format!(
            "{} commits, expected {}",
            m.commits,
            cell.expected_commits()
        ));
    }
    Ok(Facts::of(m))
}

/// The committed facts of one workload, keyed by [`CellSpec::key`].
#[derive(Debug, Default)]
pub struct Expected {
    facts: HashMap<String, Facts>,
}

/// Header line of every expected-facts file.
const HEADER: &str =
    "# benchmark policy threads seed | events commits htm_attempts aborts fallbacks makespan";

impl Expected {
    /// The committed facts of `workload`, compiled into the binary.
    pub fn for_workload(workload: &WorkloadDef) -> Result<Self, String> {
        let text = match workload.name {
            "high-contention" => include_str!("../expected/high-contention.txt"),
            "low-contention" => include_str!("../expected/low-contention.txt"),
            "many-blocks" => include_str!("../expected/many-blocks.txt"),
            "short-cells" => include_str!("../expected/short-cells.txt"),
            other => return Err(format!("no expected facts for workload {other:?}")),
        };
        Self::parse(text).map_err(|e| format!("expected/{}.txt: {e}", workload.name))
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut facts = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = (fields.len() == 10)
                .then(|| Facts::parse(&fields[4..]))
                .flatten()
                .ok_or_else(|| format!("line {}: malformed {line:?}", i + 1))?;
            facts.insert(fields[..4].join(" "), parsed);
        }
        Ok(Self { facts })
    }

    /// True when no cell has committed facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Compares `facts` with the committed ones for `key`, if any.
    pub fn check(&self, key: &str, facts: Facts) -> Result<(), String> {
        match self.facts.get(key) {
            Some(want) if *want != facts => Err(format!("facts {facts}, expected {want}")),
            _ => Ok(()),
        }
    }

    /// Runs `workload`'s cells for seeds 0 and 1 and writes their facts to
    /// `expected/<workload>.txt`; returns the path and the cell count.
    pub fn bless(workload: &WorkloadDef) -> Result<(String, usize), String> {
        let mut cells = workload.cells(0);
        for c in workload.cells(1) {
            if !cells.contains(&c) {
                cells.push(c);
            }
        }
        let mut text = format!("{HEADER}\n");
        for c in &cells {
            let m = crate::guarded(|| run_plain(c).metrics)?;
            let facts = check_run(c, &m).map_err(|e| format!("{}: {e}", c.key()))?;
            text.push_str(&format!("{} {facts}\n", c.key()));
        }
        let path = format!(
            "{}/expected/{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            workload.name
        );
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        Ok((path, cells.len()))
    }
}

/// Tallies cell executions and their failures for one run.
#[derive(Debug, Default)]
pub struct Checker {
    first: Vec<Option<Facts>>,
    attempted: u64,
    failures: Vec<String>,
}

impl Checker {
    /// A checker for a pass of `cells` cells.
    pub fn new(cells: usize) -> Self {
        Self {
            first: vec![None; cells],
            ..Self::default()
        }
    }

    /// Records one execution of cell `idx`. The first successful facts of
    /// each cell become the reference later passes must reproduce.
    pub fn record(&mut self, idx: usize, cell: &CellSpec, outcome: Result<Facts, String>) {
        self.attempted += 1;
        let outcome = outcome.and_then(|facts| match self.first[idx] {
            Some(first) if first != facts => Err(format!(
                "facts {facts} differ from the first pass's {first}"
            )),
            _ => Ok(facts),
        });
        match outcome {
            Ok(facts) => self.first[idx] = Some(facts),
            Err(e) => self.failures.push(format!("{}: {e}", cell.key())),
        }
    }

    /// The reference facts of cell `idx`, once a pass has produced them.
    pub fn facts(&self, idx: usize) -> Option<Facts> {
        self.first[idx]
    }

    /// Cell executions recorded.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failed executions.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// True when no execution failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Prints the failure count, `error_rate`, and the first failures.
    pub fn report(&self) {
        println!(
            "cells attempted {}, failed {}, error_rate {}",
            self.attempted,
            self.failed(),
            crate::ratio(self.failed() as f64, self.attempted as f64)
        );
        for f in self.failures.iter().take(10) {
            eprintln!("FAILED {f}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_harness::PolicyKind;
    use seer_stamp::Benchmark;

    fn cell() -> CellSpec {
        CellSpec {
            benchmark: Benchmark::Ssca2,
            policy: PolicyKind::Rtm,
            threads: 2,
            scale: 0.01,
            seed: 0,
        }
    }

    #[test]
    fn expected_files_parse_and_check() {
        let e = Expected::parse(&format!("{HEADER}\nssca2 rtm 2 0 10 40 41 1 0 999\n")).unwrap();
        let good = Facts::parse(&["10", "40", "41", "1", "0", "999"]).unwrap();
        assert!(e.check("ssca2 rtm 2 0", good).is_ok());
        assert!(e
            .check("ssca2 rtm 2 0", Facts { events: 11, ..good })
            .is_err());
        assert!(e
            .check("ssca2 rtm 2 1", Facts { events: 11, ..good })
            .is_ok());
        assert!(Expected::parse("ssca2 rtm 2 0 10 40\n").is_err());
        assert!(Expected::parse("ssca2 rtm 2 0 10 40 41 1 0 x\n").is_err());
        for w in &crate::WORKLOADS {
            assert!(!Expected::for_workload(w).unwrap().is_empty(), "{}", w.name);
        }
    }

    #[test]
    fn a_real_cell_passes_and_a_wrong_one_fails() {
        let c = cell();
        let m = run_plain(&c).metrics;
        let facts = check_run(&c, &m).unwrap();
        let mut short = m.clone();
        short.commits -= 1;
        assert!(check_run(&c, &short).is_err());
        let mut truncated = m;
        truncated.truncated = true;
        assert!(check_run(&c, &truncated).unwrap_err().contains("truncated"));

        let mut checker = Checker::new(1);
        checker.record(0, &c, Ok(facts));
        checker.record(0, &c, Ok(facts));
        assert!(checker.correct());
        checker.record(
            0,
            &c,
            Ok(Facts {
                makespan: 1,
                ..facts
            }),
        );
        checker.record(0, &c, Err("panicked".to_string()));
        assert_eq!((checker.attempted(), checker.failed()), (4, 2));
        assert!(!checker.correct());
        assert_eq!(checker.facts(0), Some(facts));
    }
}

//! Export of decision-provenance traces: JSONL and Chrome trace-event.
//!
//! A [`MemoryTraceSink`] collected through a traced `RunRequest` serializes to:
//!
//! * **JSONL** ([`trace_jsonl`]) — one record per line, both streams
//!   merged chronologically (ties: lifecycle before inference; within a
//!   stream, emission order). The schema is documented in `DESIGN.md`
//!   §10 and machine-checked by [`validate_trace_jsonl`] (`seer check
//!   trace`).
//! * **Chrome trace-event JSON** ([`chrome_trace`]) — loadable in
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev): hardware
//!   attempts become duration (`B`/`E`) slices per thread, everything
//!   else instant events; inference rounds land on a dedicated row.
//!
//! Serialization is deterministic: records are value types, floats use
//! Rust's shortest-round-trip formatting, and key order is fixed — so
//! the same run always produces byte-identical output (the golden
//! decision-JSONL snapshot in `seer-conformance` pins this).
//!
//! The file writers warn **once** per process on an unwritable path
//! (matching the `SEER_SEEDS`/`SEER_JOBS` env-var style) instead of
//! panicking: tracing is diagnostics, and diagnostics must not take down
//! an experiment run that already computed its results.

use std::sync::Once;

use seer_runtime::trace::{InferenceTrace, LifecycleEvent, MemoryTraceSink};
use seer_sim::cycles_to_trace_micros;

use seer_store::Json;

/// One lifecycle event as a JSONL record.
pub fn lifecycle_json(ev: &LifecycleEvent) -> Json {
    let mut fields = vec![
        ("type".to_string(), Json::Str(ev.kind().to_string())),
        ("at".to_string(), Json::UInt(ev.at())),
        ("thread".to_string(), Json::UInt(ev.thread() as u64)),
    ];
    match ev {
        LifecycleEvent::AttemptBegin { block, attempt, .. } => {
            fields.push(("block".to_string(), Json::UInt(*block as u64)));
            fields.push(("attempt".to_string(), Json::UInt(*attempt as u64)));
        }
        LifecycleEvent::Abort {
            block,
            cause,
            attempts_left,
            ..
        } => {
            fields.push(("block".to_string(), Json::UInt(*block as u64)));
            fields.push(("cause".to_string(), Json::Str(cause.label().to_string())));
            fields.push((
                "attempts_left".to_string(),
                Json::UInt(*attempts_left as u64),
            ));
        }
        LifecycleEvent::LockWait { lock, holder, .. } => {
            fields.push(("lock".to_string(), Json::Str(lock.to_string())));
            fields.push((
                "holder".to_string(),
                match holder {
                    Some(h) => Json::UInt(*h as u64),
                    None => Json::Null,
                },
            ));
        }
        LifecycleEvent::LocksAcquired { locks, .. } => {
            fields.push((
                "locks".to_string(),
                Json::Array(locks.iter().map(|l| Json::Str(l.to_string())).collect()),
            ));
        }
        LifecycleEvent::SglFallback { block, .. } => {
            fields.push(("block".to_string(), Json::UInt(*block as u64)));
        }
        LifecycleEvent::HtmCommit {
            block,
            attempts_used,
            ..
        } => {
            fields.push(("block".to_string(), Json::UInt(*block as u64)));
            fields.push((
                "attempts_used".to_string(),
                Json::UInt(*attempts_used as u64),
            ));
        }
        LifecycleEvent::FallbackCommit { block, .. } => {
            fields.push(("block".to_string(), Json::UInt(*block as u64)));
        }
    }
    Json::Object(fields)
}

/// One inference round as a JSONL record.
pub fn inference_json(tr: &InferenceTrace) -> Json {
    let rows = tr
        .rows
        .iter()
        .map(|r| {
            let pairs = r
                .pairs
                .iter()
                .map(|p| {
                    Json::object([
                        ("y", Json::UInt(p.y as u64)),
                        ("conditional", Json::Num(p.conditional)),
                        ("conjunctive", Json::Num(p.conjunctive)),
                        ("verdict", Json::Str(p.verdict.label().to_string())),
                    ])
                })
                .collect();
            Json::object([
                ("x", Json::UInt(r.x as u64)),
                ("eta", Json::Num(r.eta)),
                ("sigma2", Json::Num(r.sigma2)),
                ("cutoff", Json::Num(r.cutoff)),
                ("discriminative", Json::Bool(r.discriminative)),
                ("pairs", Json::Array(pairs)),
            ])
        })
        .collect();
    Json::object([
        ("type", Json::Str("inference".to_string())),
        ("at", Json::UInt(tr.at)),
        ("round", Json::UInt(tr.round)),
        (
            "stats_digest",
            Json::Str(format!("{:#018x}", tr.stats_digest)),
        ),
        ("th1", Json::Num(tr.th1)),
        ("th2", Json::Num(tr.th2)),
        ("total_execs", Json::UInt(tr.total_execs)),
        ("rows", Json::Array(rows)),
    ])
}

/// Both streams of `sink` as JSONL: one compact record per line, merged
/// chronologically (lifecycle first on equal timestamps), trailing
/// newline included when non-empty.
pub fn trace_jsonl(sink: &MemoryTraceSink) -> String {
    let mut out = String::new();
    let (mut li, mut ii) = (0, 0);
    while li < sink.lifecycle.len() || ii < sink.inference.len() {
        let take_lifecycle = match (sink.lifecycle.get(li), sink.inference.get(ii)) {
            (Some(l), Some(i)) => l.at() <= i.at,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let record = if take_lifecycle {
            li += 1;
            lifecycle_json(&sink.lifecycle[li - 1])
        } else {
            ii += 1;
            inference_json(&sink.inference[ii - 1])
        };
        out.push_str(&record.to_string_compact());
        out.push('\n');
    }
    out
}

/// The Chrome trace-event document for `sink` (the JSON Object Format:
/// `{"traceEvents": [...]}`), loadable in `chrome://tracing` or Perfetto.
///
/// Hardware attempts become `B`/`E` duration slices (closed by the abort
/// or commit that ends them); lock waits, fall-backs and lock
/// acquisitions are instant (`i`) events on their thread's row; inference
/// rounds are instant events on the synthetic thread row `"inference"`
/// (tid one past the last simulated thread).
pub fn chrome_trace(sink: &MemoryTraceSink) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let mut max_thread = 0usize;
    let ev = |name: String, ph: &str, at: u64, tid: u64, args: Vec<(String, Json)>| {
        let mut fields = vec![
            ("name".to_string(), Json::Str(name)),
            ("ph".to_string(), Json::Str(ph.to_string())),
            ("ts".to_string(), Json::Num(cycles_to_trace_micros(at))),
            ("pid".to_string(), Json::UInt(0)),
            ("tid".to_string(), Json::UInt(tid)),
        ];
        if !args.is_empty() {
            fields.push(("args".to_string(), Json::Object(args)));
        }
        // Instant events need a scope; thread scope is the narrowest.
        if ph == "i" {
            fields.push(("s".to_string(), Json::Str("t".to_string())));
        }
        Json::Object(fields)
    };
    for e in &sink.lifecycle {
        let tid = e.thread() as u64;
        max_thread = max_thread.max(e.thread());
        match e {
            LifecycleEvent::AttemptBegin {
                at, block, attempt, ..
            } => {
                events.push(ev(
                    format!("attempt b{block}"),
                    "B",
                    *at,
                    tid,
                    vec![("attempt".to_string(), Json::UInt(*attempt as u64))],
                ));
            }
            LifecycleEvent::Abort { at, cause, .. } => {
                events.push(ev(
                    format!("attempt b{}", abort_block(e)),
                    "E",
                    *at,
                    tid,
                    vec![(
                        "outcome".to_string(),
                        Json::Str(format!("abort:{}", cause.label())),
                    )],
                ));
            }
            LifecycleEvent::HtmCommit { at, block, .. } => {
                events.push(ev(
                    format!("attempt b{block}"),
                    "E",
                    *at,
                    tid,
                    vec![("outcome".to_string(), Json::Str("commit".to_string()))],
                ));
            }
            LifecycleEvent::LockWait {
                at, lock, holder, ..
            } => {
                events.push(ev(
                    format!("wait {lock}"),
                    "i",
                    *at,
                    tid,
                    vec![(
                        "holder".to_string(),
                        match holder {
                            Some(h) => Json::UInt(*h as u64),
                            None => Json::Null,
                        },
                    )],
                ));
            }
            LifecycleEvent::LocksAcquired { at, locks, .. } => {
                events.push(ev(
                    "locks-acquired".to_string(),
                    "i",
                    *at,
                    tid,
                    vec![(
                        "locks".to_string(),
                        Json::Array(locks.iter().map(|l| Json::Str(l.to_string())).collect()),
                    )],
                ));
            }
            LifecycleEvent::SglFallback { at, block, .. } => {
                events.push(ev(format!("sgl-fallback b{block}"), "i", *at, tid, vec![]));
            }
            LifecycleEvent::FallbackCommit { at, block, .. } => {
                events.push(ev(
                    format!("fallback-commit b{block}"),
                    "i",
                    *at,
                    tid,
                    vec![],
                ));
            }
        }
    }
    let inference_tid = (max_thread + 1) as u64;
    for tr in &sink.inference {
        let serialized = tr
            .rows
            .iter()
            .flat_map(|r| r.pairs.iter())
            .filter(|p| p.verdict.serialize())
            .count();
        events.push(ev(
            format!("inference round {}", tr.round),
            "i",
            tr.at,
            inference_tid,
            vec![
                (
                    "serialized_pairs".to_string(),
                    Json::UInt(serialized as u64),
                ),
                ("th1".to_string(), Json::Num(tr.th1)),
                ("th2".to_string(), Json::Num(tr.th2)),
            ],
        ));
    }
    Json::object([("traceEvents", Json::Array(events))])
}

/// Block id of an abort event (only called on `Abort`).
fn abort_block(e: &LifecycleEvent) -> u64 {
    match e {
        LifecycleEvent::Abort { block, .. } => *block as u64,
        _ => unreachable!("abort_block on non-abort event"),
    }
}

/// Writes `content` to `path`, warning **once** per process (in the
/// `SEER_SEEDS`/`SEER_JOBS` style) instead of panicking when the path is
/// unwritable. Returns whether the write succeeded.
fn write_or_warn(path: &str, content: &str, warned: &'static Once) -> bool {
    match std::fs::write(path, content) {
        Ok(()) => true,
        Err(e) => {
            warned.call_once(|| {
                eprintln!(
                    "warning: cannot write trace to {path:?}: {e}; \
                     continuing without trace output"
                );
            });
            false
        }
    }
}

/// Writes the merged JSONL of `sink` to `path`; warns once and returns
/// `false` on an unwritable path.
pub fn write_trace_jsonl(path: &str, sink: &MemoryTraceSink) -> bool {
    static WARNED: Once = Once::new();
    write_or_warn(path, &trace_jsonl(sink), &WARNED)
}

/// Writes the Chrome trace-event document of `sink` to `path`; warns once
/// and returns `false` on an unwritable path.
pub fn write_chrome_trace(path: &str, sink: &MemoryTraceSink) -> bool {
    static WARNED: Once = Once::new();
    write_or_warn(path, &chrome_trace(sink).to_string_pretty(), &WARNED)
}

/// Lifecycle record types and their fields beyond the common
/// `type`/`at`/`thread` triple. A field's type follows from its name
/// alone (see [`check_lifecycle_field`]).
const LIFECYCLE_FIELDS: &[(&str, &[&str])] = &[
    ("attempt-begin", &["block", "attempt"]),
    ("abort", &["block", "cause", "attempts_left"]),
    ("lock-wait", &["lock", "holder"]),
    ("locks-acquired", &["locks"]),
    ("sgl-fallback", &["block"]),
    ("htm-commit", &["block", "attempts_used"]),
    ("fallback-commit", &["block"]),
];

const ABORT_CAUSES: &[&str] = &["conflict", "capacity", "explicit", "other"];
const VERDICTS: &[&str] = &["serialize", "reject-th1", "reject-th2", "reject-both"];

fn is_lock_label(s: &str) -> bool {
    let index = |prefix| {
        s.strip_prefix(prefix)
            .is_some_and(|n| n.parse::<u64>().is_ok())
    };
    s == "sgl" || s == "aux" || index("core:") || index("tx:")
}

fn check_lifecycle_field(rec: &Json, name: &str) -> Result<(), String> {
    let valid = match name {
        "cause" => ABORT_CAUSES.contains(&rec.str_field(name)?),
        "lock" => is_lock_label(rec.str_field(name)?),
        "locks" => rec
            .array_field(name)?
            .iter()
            .all(|l| l.as_str().is_some_and(is_lock_label)),
        "holder" => return rec.opt_u64_field(name).map(drop),
        _ => return rec.u64_field(name).map(drop),
    };
    if valid {
        Ok(())
    } else {
        Err(format!("field {name:?} has invalid value"))
    }
}

fn check_inference(rec: &Json) -> Result<(), String> {
    for name in ["round", "total_execs"] {
        rec.u64_field(name)?;
    }
    let digest = rec.str_field("stats_digest")?;
    let hex = digest.strip_prefix("0x").unwrap_or("");
    if u64::from_str_radix(hex, 16).is_err() {
        return Err(format!("stats_digest {digest:?} is not a hex literal"));
    }
    for name in ["th1", "th2"] {
        rec.f64_field(name)?;
    }
    for row in rec.array_field("rows")? {
        row.u64_field("x")?;
        for name in ["eta", "sigma2", "cutoff"] {
            row.f64_field(name)?;
        }
        row.bool_field("discriminative")?;
        for pair in row.array_field("pairs")? {
            pair.u64_field("y")?;
            for name in ["conditional", "conjunctive"] {
                pair.f64_field(name)?;
            }
            let verdict = pair.str_field("verdict")?;
            if !VERDICTS.contains(&verdict) {
                return Err(format!("unknown verdict {verdict:?}"));
            }
        }
    }
    Ok(())
}

fn check_record(rec: &Json) -> Result<&'static str, String> {
    let ty = rec.str_field("type")?;
    if ty == "inference" {
        check_inference(rec)?;
        return Ok("inference");
    }
    let (name, fields) = LIFECYCLE_FIELDS
        .iter()
        .find(|(name, _)| *name == ty)
        .ok_or_else(|| format!("unknown record type {ty:?}"))?;
    rec.u64_field("thread")?;
    for field in *fields {
        check_lifecycle_field(rec, field)?;
    }
    Ok(name)
}

/// Validates a decision-provenance JSONL trace (the [`trace_jsonl`]
/// output) against the schema documented in `DESIGN.md` §10: every line
/// a known record type with its required fields, typed and restricted to
/// their documented labels, and timestamps that never go backwards (the
/// exporter merges both streams chronologically). Returns the per-type
/// record counts in first-seen order; an error names the 1-based line.
pub fn validate_trace_jsonl(text: &str) -> Result<Vec<(&'static str, u64)>, String> {
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    let mut last_at = 0u64;
    for (i, line) in text.lines().enumerate() {
        let in_line = |e: String| format!("line {}: {e}", i + 1);
        let rec = Json::parse(line).map_err(|e| in_line(format!("not valid JSON: {e}")))?;
        let ty = check_record(&rec).map_err(in_line)?;
        let at = rec.u64_field("at").map_err(in_line)?;
        if at < last_at {
            return Err(in_line(format!(
                "timestamp {at} goes backwards (previous {last_at})"
            )));
        }
        last_at = at;
        match counts.iter_mut().find(|(name, _)| *name == ty) {
            Some((_, n)) => *n += 1,
            None => counts.push((ty, 1)),
        }
    }
    if counts.is_empty() {
        return Err("no records".into());
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::trace::{AbortCause, PairDecision, RowTrace, Verdict};
    use seer_runtime::LockId;

    fn sample_sink() -> MemoryTraceSink {
        let mut s = MemoryTraceSink::new();
        s.lifecycle.push(LifecycleEvent::AttemptBegin {
            at: 10,
            thread: 0,
            block: 1,
            attempt: 0,
        });
        s.lifecycle.push(LifecycleEvent::LockWait {
            at: 15,
            thread: 1,
            lock: LockId::Tx(3),
            holder: Some(0),
        });
        s.lifecycle.push(LifecycleEvent::Abort {
            at: 20,
            thread: 0,
            block: 1,
            cause: AbortCause::Capacity,
            attempts_left: 2,
        });
        s.lifecycle.push(LifecycleEvent::LocksAcquired {
            at: 25,
            thread: 0,
            locks: vec![LockId::Core(0), LockId::Tx(1)],
        });
        s.lifecycle.push(LifecycleEvent::SglFallback {
            at: 30,
            thread: 0,
            block: 1,
        });
        s.lifecycle.push(LifecycleEvent::FallbackCommit {
            at: 40,
            thread: 0,
            block: 1,
        });
        s.inference.push(InferenceTrace {
            round: 1,
            at: 20,
            stats_digest: 0xabcd,
            th1: 0.3,
            th2: 0.8,
            total_execs: 5,
            rows: vec![RowTrace {
                x: 0,
                eta: 0.1,
                sigma2: 0.04,
                cutoff: 0.26,
                discriminative: true,
                pairs: vec![PairDecision {
                    y: 1,
                    conditional: 0.5,
                    conjunctive: 0.4,
                    verdict: Verdict::Serialize,
                }],
            }],
        });
        s
    }

    #[test]
    fn jsonl_merges_chronologically_lifecycle_first() {
        let jsonl = trace_jsonl(&sample_sink());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 7);
        // The inference record at t=20 lands after the abort at t=20
        // (lifecycle wins ties) and before the t=25 acquisition.
        let types: Vec<String> = lines
            .iter()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("type")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            types,
            vec![
                "attempt-begin",
                "lock-wait",
                "abort",
                "inference",
                "locks-acquired",
                "sgl-fallback",
                "fallback-commit"
            ]
        );
        // Timestamps are non-decreasing.
        let ats: Vec<u64> = lines
            .iter()
            .map(|l| Json::parse(l).unwrap().get("at").unwrap().as_u64().unwrap())
            .collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn jsonl_field_content_survives_round_trip() {
        let jsonl = trace_jsonl(&sample_sink());
        let wait = Json::parse(jsonl.lines().nth(1).unwrap()).unwrap();
        assert_eq!(wait.get("lock").unwrap().as_str(), Some("tx:3"));
        assert_eq!(wait.get("holder").unwrap().as_u64(), Some(0));
        let abort = Json::parse(jsonl.lines().nth(2).unwrap()).unwrap();
        assert_eq!(abort.get("cause").unwrap().as_str(), Some("capacity"));
        assert_eq!(abort.get("attempts_left").unwrap().as_u64(), Some(2));
        let inf = Json::parse(jsonl.lines().nth(3).unwrap()).unwrap();
        assert_eq!(
            inf.get("stats_digest").unwrap().as_str(),
            Some("0x000000000000abcd")
        );
        let row = &inf.get("rows").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("cutoff").unwrap().as_f64(), Some(0.26));
        let pair = &row.get("pairs").unwrap().as_array().unwrap()[0];
        assert_eq!(pair.get("verdict").unwrap().as_str(), Some("serialize"));
    }

    #[test]
    fn serialization_is_deterministic() {
        let s = sample_sink();
        assert_eq!(trace_jsonl(&s), trace_jsonl(&s));
        assert_eq!(
            chrome_trace(&s).to_string_pretty(),
            chrome_trace(&s).to_string_pretty()
        );
    }

    #[test]
    fn chrome_trace_pairs_begin_end_and_isolates_inference() {
        let doc = chrome_trace(&sample_sink());
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases.iter().filter(|&&p| p == "B").count(), 1);
        assert_eq!(phases.iter().filter(|&&p| p == "E").count(), 1);
        // Inference rides a synthetic tid above all simulated threads.
        let inf = events
            .iter()
            .find(|e| {
                e.get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .starts_with("inference")
            })
            .unwrap();
        assert_eq!(inf.get("tid").unwrap().as_u64(), Some(2));
        // ts is in microseconds under the 1 GHz nominal clock.
        assert_eq!(inf.get("ts").unwrap().as_f64(), Some(0.02));
    }

    #[test]
    fn unwritable_path_warns_instead_of_panicking() {
        let sink = sample_sink();
        assert!(!write_trace_jsonl(
            "/nonexistent-dir/deep/trace.jsonl",
            &sink
        ));
        assert!(!write_chrome_trace(
            "/nonexistent-dir/deep/trace.json",
            &sink
        ));
        // Repeat: the Once means no second warning, and still no panic.
        assert!(!write_trace_jsonl(
            "/nonexistent-dir/deep/trace.jsonl",
            &sink
        ));
    }

    #[test]
    fn writable_path_round_trips() {
        let sink = sample_sink();
        let dir = std::env::temp_dir().join("seer-trace-export-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path = path.to_str().unwrap();
        assert!(write_trace_jsonl(path, &sink));
        let read_back = std::fs::read_to_string(path).unwrap();
        assert_eq!(read_back, trace_jsonl(&sink));
    }
}

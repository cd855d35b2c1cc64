//! The decision-trace schema validator (`seer check trace`) against real
//! traces and targeted mutations of them.
//!
//! Both accepted inputs come from the exporter itself — the committed
//! decision snapshot and a freshly traced cell with both streams — so the
//! validator and `trace_jsonl` cannot drift apart unnoticed. Each
//! rejection case breaks exactly one documented rule (`DESIGN.md` §10).

use seer_harness::{trace_jsonl, validate_trace_jsonl, Cell, PolicyKind};
use seer_runtime::MemoryTraceSink;
use seer_scenario::RunRequest;
use seer_stamp::Benchmark;

const FIXTURE: &str = include_str!("fixtures/decision_trace.jsonl");

fn fresh_trace() -> String {
    let mut sink = MemoryTraceSink::new();
    RunRequest::cell(Cell {
        benchmark: Benchmark::KmeansHigh,
        policy: PolicyKind::Seer,
        threads: 4,
    })
    .seed(0)
    .scale(0.2)
    .traced(&mut sink)
    .run();
    trace_jsonl(&sink)
}

fn count(counts: &[(&str, u64)], ty: &str) -> u64 {
    counts
        .iter()
        .find(|(name, _)| *name == ty)
        .map_or(0, |(_, n)| *n)
}

/// The trace with one extra record appended at the final timestamp.
fn with_record(trace: &str, record: &str) -> String {
    format!("{trace}{record}\n")
}

fn last_at(trace: &str) -> u64 {
    let last = trace.lines().last().expect("non-empty trace");
    seer_harness::Json::parse(last)
        .unwrap()
        .u64_field("at")
        .unwrap()
}

#[test]
fn accepts_the_committed_decision_snapshot() {
    let counts = validate_trace_jsonl(FIXTURE).expect("fixture validates");
    assert_eq!(counts, vec![("inference", FIXTURE.lines().count() as u64)]);
}

#[test]
fn accepts_a_freshly_traced_cell_with_both_streams() {
    let trace = fresh_trace();
    let counts = validate_trace_jsonl(&trace).expect("fresh trace validates");
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    assert_eq!(total, trace.lines().count() as u64);
    for ty in ["attempt-begin", "htm-commit", "inference"] {
        assert!(count(&counts, ty) > 0, "no {ty} records in {counts:?}");
    }
}

#[test]
fn rejects_each_broken_rule() {
    let trace = fresh_trace();
    let at = last_at(&trace);

    let unknown = with_record(
        &trace,
        &format!(r#"{{"type":"teleport","at":{at},"thread":0}}"#),
    );
    let err = validate_trace_jsonl(&unknown).unwrap_err();
    assert!(err.contains("unknown record type"), "{err}");
    assert!(
        err.starts_with(&format!("line {}:", trace.lines().count() + 1)),
        "{err}"
    );

    let bad_lock = with_record(
        &trace,
        &format!(r#"{{"type":"lock-wait","at":{at},"thread":0,"lock":"core:x","holder":null}}"#),
    );
    assert!(validate_trace_jsonl(&bad_lock)
        .unwrap_err()
        .contains("\"lock\""));
    // The same record with a well-formed label passes.
    let good_lock = bad_lock.replace("core:x", "core:1");
    assert!(validate_trace_jsonl(&good_lock).is_ok());

    assert!(at > 0, "the fresh trace must advance time");
    let backwards = with_record(
        &trace,
        r#"{"type":"sgl-fallback","at":0,"thread":0,"block":0}"#,
    );
    assert!(validate_trace_jsonl(&backwards)
        .unwrap_err()
        .contains("goes backwards"));

    let bad_digest = FIXTURE.replacen(r#""stats_digest":"0x"#, r#""stats_digest":"0xzz"#, 1);
    assert_ne!(bad_digest, FIXTURE);
    assert!(validate_trace_jsonl(&bad_digest)
        .unwrap_err()
        .contains("hex"));

    let bad_verdict = FIXTURE.replacen(r#""verdict":"serialize""#, r#""verdict":"maybe""#, 1);
    assert_ne!(bad_verdict, FIXTURE);
    assert!(validate_trace_jsonl(&bad_verdict)
        .unwrap_err()
        .contains("unknown verdict"));

    assert_eq!(validate_trace_jsonl("").unwrap_err(), "no records");
}

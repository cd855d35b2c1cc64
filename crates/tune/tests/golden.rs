//! Golden leaderboard fixture: one small pinned search whose rendered
//! report JSON is committed byte-for-byte. Any drift in the sampler
//! streams, the drivers' proposal order, the objective arithmetic, or
//! the report schema shows up here as a diff.
//!
//! Fixture regeneration after an *intentional* change:
//!
//! ```text
//! SEER_BLESS=1 cargo test -p seer-tune --test golden
//! ```

use seer_tune::{
    report_json, run_search, validate_report, CombinedObjective, DriverKind, ParamSpace,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/leaderboard.json"
);

#[test]
fn pinned_search_renders_the_committed_leaderboard() {
    let space = ParamSpace::default_space();
    let exec = seer_tune::TuneExecutor::new(2);
    let outcome = run_search(
        &space,
        DriverKind::Random,
        3,
        42,
        &CombinedObjective,
        &exec,
        &mut |_, _| {},
    );
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let doc = report_json(
        &space,
        DriverKind::Random,
        3,
        42,
        "combined",
        &outcome,
        None,
    );
    assert!(
        validate_report(&doc).is_empty(),
        "the golden report must satisfy the `seer check tune` schema: {:?}",
        validate_report(&doc)
    );
    let computed = doc.to_string_pretty() + "\n";

    if std::env::var_os("SEER_BLESS").is_some() {
        std::fs::write(FIXTURE, &computed).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("missing tests/fixtures/leaderboard.json — run with SEER_BLESS=1 to create it");
    assert_eq!(
        golden, computed,
        "the leaderboard drifted from the committed fixture \
         (intentional? re-bless with SEER_BLESS=1)"
    );
}

//! Determinism under fan-out: the pinned contract of the whole tune
//! subsystem. One search — same space, driver, budget, objective, seed
//! — is run serially and across four local executor threads, and every
//! outcome field plus the rendered report JSON must agree byte-for-byte.

use seer_tune::{
    report_json, run_search, CombinedObjective, DriverKind, ParamSpace, SearchOutcome,
    TuneExecutor,
};

const DRIVER: DriverKind = DriverKind::Halving;
const BUDGET: u64 = 4;
const SEED: u64 = 0;

fn search(exec: &TuneExecutor) -> (SearchOutcome, String) {
    let space = ParamSpace::default_space();
    let outcome = run_search(
        &space,
        DRIVER,
        BUDGET,
        SEED,
        &CombinedObjective,
        exec,
        &mut |_, _| {},
    );
    let rendered = report_json(
        &space,
        DRIVER,
        BUDGET,
        SEED,
        "combined",
        &outcome,
        None,
    )
    .to_string_pretty();
    (outcome, rendered)
}

/// Field-for-field equality, score compared by bit pattern: "close
/// enough" floats would mask a schedule divergence.
fn assert_outcomes_identical(what: &str, a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(a.trials.len(), b.trials.len(), "{what}: trial count");
    for (x, y) in a.trials.iter().zip(&b.trials) {
        assert_eq!(x.index, y.index, "{what}: proposal order");
        assert_eq!(x.point, y.point, "{what}: trial {} point", x.index);
        assert_eq!(x.fidelity, y.fidelity, "{what}: trial {} fidelity", x.index);
        assert_eq!(
            x.score.map(f64::to_bits),
            y.score.map(f64::to_bits),
            "{what}: trial {} score bits",
            x.index
        );
    }
    assert_eq!(a.best, b.best, "{what}: incumbent");
    assert!(a.failures.is_empty(), "{what}: unexpected failures");
    assert!(b.failures.is_empty(), "{what}: unexpected failures");
}

#[test]
fn search_is_bit_identical_serial_and_parallel() {
    let (serial, serial_json) = search(&TuneExecutor::new(1));
    assert!(serial.best.is_some(), "the pinned search must score");

    let (parallel, parallel_json) = search(&TuneExecutor::new(4));
    assert_outcomes_identical("jobs=4", &serial, &parallel);
    assert_eq!(serial_json, parallel_json, "jobs=4: rendered report bytes");
}

//! Never-panic properties of the scenario-spec parser.
//!
//! A spec file (`seer scenario run --spec F.json`) is user input, so
//! [`ScenarioSpec::parse`] must hold the wire decoder's contract: any
//! text — a built-in spec's JSON intact, truncated at any offset,
//! bit-flipped anywhere, or with random bytes spliced in — either parses
//! or returns an error. No input may panic, and a spec that parses must
//! itself be valid: it passes `validate`, round-trips through its JSON,
//! and lowers to a directive script and a disturbance list.

use proptest::prelude::*;
use seer_scenario::{library, FaultKind, ScenarioSpec};

/// Every built-in scenario, pretty-printed as a spec file.
fn builtin_texts() -> Vec<String> {
    library::all()
        .iter()
        .map(|spec| spec.to_json().to_string_pretty())
        .collect()
}

/// Parses arbitrary bytes as a spec file would be read, and checks that
/// whatever parses is a usable spec.
fn parse_bytes(bytes: &[u8]) -> Result<ScenarioSpec, String> {
    let spec = ScenarioSpec::parse(&String::from_utf8_lossy(bytes))?;
    spec.validate().expect("a parsed spec is valid");
    let again = ScenarioSpec::parse(&spec.to_json().to_string_pretty())
        .expect("a parsed spec re-parses from its own JSON");
    assert_eq!(again, spec, "a parsed spec round-trips");
    spec.compile();
    spec.disturbances();
    Ok(spec)
}

#[test]
fn builtin_specs_parse_intact() {
    for (text, spec) in builtin_texts().iter().zip(library::all()) {
        assert_eq!(parse_bytes(text.as_bytes()).unwrap(), spec);
    }
}

/// Every truncation of every built-in and every single-bit flip at every
/// offset of every built-in. Deterministic, so the never-panic claim
/// holds at literally every offset. A strict prefix of a JSON object
/// never closes it, so truncations must all be errors.
#[test]
fn corruption_sweep_at_every_offset() {
    for text in builtin_texts() {
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            assert!(parse_bytes(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut mangled = bytes.to_vec();
                mangled[pos] ^= 1 << bit;
                let _ = parse_bytes(&mangled);
            }
        }
    }
}

/// Values at the edges of each field's type: the parser and validator
/// must reject or accept them without overflowing anywhere downstream.
#[test]
fn extreme_field_values_never_panic() {
    let base = library::builtin("capacity-cliff")
        .unwrap()
        .to_json()
        .to_string_pretty();
    let extremes = [
        "0",
        "-1",
        "1.5",
        "1e308",
        "-1e308",
        "18446744073709551615",
        "18446744073709551616",
        "340282366920938463463374607431768211456",
        "1e-320",
        "null",
        "true",
        "\"x\"",
        "[]",
        "{}",
    ];
    for field in [
        "threads",
        "scale",
        "window",
        "at",
        "skew",
        "think_scale",
        "thread",
        "ways",
        "read_lines",
        "restore_after",
    ] {
        let key = format!("\"{field}\": ");
        for (start, _) in base.match_indices(&key) {
            let value_start = start + key.len();
            let value_end = value_start
                + base[value_start..]
                    .find([',', '\n', '}'])
                    .expect("every value is terminated");
            for value in extremes {
                let text = format!("{}{value}{}", &base[..value_start], &base[value_end..]);
                let _ = parse_bytes(text.as_bytes());
            }
        }
    }
}

/// Regressions: a capacity-shrink whose restore time overflows the cycle
/// counter parsed, then panicked when compiled into a directive script;
/// a `u64::MAX` scoring window panicked when coalescing disturbances.
#[test]
fn overflowing_cycle_values_never_panic() {
    let mut spec = library::builtin("capacity-cliff").unwrap();
    let FaultKind::CapacityShrink { restore_after, .. } = &mut spec.faults[0].fault else {
        panic!("capacity-cliff's fault is a capacity shrink");
    };
    *restore_after = u64::MAX;
    let err = parse_bytes(spec.to_json().to_string_pretty().as_bytes()).unwrap_err();
    assert!(err.contains("overflows"), "{err}");

    let mut spec = library::builtin("churn-storm").unwrap();
    spec.window = u64::MAX;
    let parsed = parse_bytes(spec.to_json().to_string_pretty().as_bytes()).unwrap();
    assert_eq!(
        parsed.disturbances().len(),
        1,
        "one window spans the whole run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes replacing a random span of a built-in spec.
    #[test]
    fn splices_never_panic(
        which in 0usize..library::BUILTIN_NAMES.len(),
        at_seed in any::<u64>(),
        len_seed in any::<u64>(),
        insert in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut bytes = builtin_texts().swap_remove(which).into_bytes();
        let at = (at_seed % bytes.len() as u64) as usize;
        let end = at + (len_seed % 8) as usize;
        bytes.splice(at..end.min(bytes.len()), insert);
        let _ = parse_bytes(&bytes);
    }

    /// Several bit flips at once, anywhere in a built-in spec.
    #[test]
    fn multi_bit_flips_never_panic(
        which in 0usize..library::BUILTIN_NAMES.len(),
        flips in prop::collection::vec((any::<u64>(), 0u8..8), 1..6),
    ) {
        let mut bytes = builtin_texts().swap_remove(which).into_bytes();
        for (pos_seed, bit) in flips {
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << bit;
        }
        let _ = parse_bytes(&bytes);
    }
}

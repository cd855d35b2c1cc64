//! Property tests for the search-space spec and its samplers.
//!
//! Three contracts:
//!
//! * **Round-trip** — any space that validates serializes to JSON and
//!   parses back to an identical space (floats included: the JSON layer
//!   renders shortest-round-trip).
//! * **Bounds** — `sample`, `midpoint`, and every `neighbors` step land
//!   strictly inside the declared ranges, degenerate (constant)
//!   dimensions included, and every in-space point yields a policy spec
//!   that parses back (the cache/wire identity).
//! * **Never panic** — arbitrary dimension lists either validate or
//!   return a `SpaceError`; malformed ranges (inverted, NaN, empty
//!   choices, unknown knobs) are rejected, not mis-sampled. The same
//!   holds one level down, for space *files* (`seer tune --space`): the
//!   built-in space's JSON truncated at any offset, bit-flipped anywhere
//!   or with random bytes spliced in either parses to a valid space or
//!   returns a `SpaceError`.

use proptest::prelude::*;
use seer_sim::SimRng;
use seer_tune::{
    sampler::{midpoint, neighbors, sample},
    Dim, DimKind, ParamSpace, SpaceError,
};

/// Raw material for one *valid* dimension of the knob picked by `sel`.
/// Degenerate ranges (span 0, a single choice) are reachable — proptest
/// shrinks toward them — and must validate, warn, and sample safely.
#[allow(clippy::too_many_arguments)]
fn build_valid_dim(
    sel: usize,
    int_lo: u64,
    int_span: u64,
    n_choices: usize,
    f_lo_millis: u64,
    f_span_millis: u64,
    ratio_tenths: u64,
    log: bool,
) -> Dim {
    match sel % 6 {
        0 => Dim {
            name: "window".into(),
            kind: DimKind::Int {
                min: int_lo,
                max: int_lo + int_span,
            },
        },
        1 => Dim {
            name: "climb".into(),
            kind: DimKind::Int {
                min: int_lo,
                max: int_lo + int_span,
            },
        },
        2 => {
            let all = ["off", "2", "16", "64"];
            Dim {
                name: "decay".into(),
                kind: DimKind::Choice {
                    options: all[..1 + n_choices % 4]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                },
            }
        }
        3 => {
            // A positive range, optionally log-sampled; exactly dyadic
            // endpoints are unnecessary — any finite float round-trips.
            let min = (1 + f_lo_millis) as f64 / 1000.0;
            let ratio = 1.0 + ratio_tenths as f64 / 10.0;
            Dim {
                name: "min-sigma".into(),
                kind: DimKind::Float {
                    min,
                    max: min * ratio,
                    log,
                },
            }
        }
        4 => {
            let min = (f_lo_millis % 500) as f64 / 1000.0;
            let max = (min + f_span_millis as f64 / 1000.0).min(1.0);
            Dim {
                name: "th1".into(),
                kind: DimKind::Float {
                    min,
                    max,
                    log: false,
                },
            }
        }
        _ => {
            let min = (f_lo_millis % 500) as f64 / 1000.0;
            let max = (min + f_span_millis as f64 / 1000.0).min(1.0);
            Dim {
                name: "th2".into(),
                kind: DimKind::Float {
                    min,
                    max,
                    log: false,
                },
            }
        }
    }
}

type RawDim = (usize, u64, u64, usize, u64, u64, u64, bool);

/// A valid space from a bag of raw draws: one dimension per distinct
/// knob, at least one dimension total.
fn build_valid_space(raw: &[RawDim]) -> ParamSpace {
    let mut dims: Vec<Dim> = Vec::new();
    for &(sel, a, b, c, d, e, f, g) in raw {
        let dim = build_valid_dim(sel, a, b, c, d, e, f, g);
        if !dims.iter().any(|existing| existing.name == dim.name) {
            dims.push(dim);
        }
    }
    ParamSpace::new(dims).expect("generated dimensions validate")
}

fn raw_dim_strategy() -> impl Strategy<Value = RawDim> {
    (
        0usize..6,
        1u64..2000,
        0u64..2000,
        0usize..8,
        0u64..400,
        0u64..500,
        0u64..100,
        any::<bool>(),
    )
}

/// The built-in space as a space file.
fn default_space_text() -> String {
    ParamSpace::default_space().to_json().to_string_pretty()
}

/// Parses arbitrary bytes as a space file would be read, and checks that
/// whatever parses is a valid space that round-trips and samples in
/// bounds.
fn parse_bytes(bytes: &[u8]) -> Result<ParamSpace, SpaceError> {
    let space = ParamSpace::parse(&String::from_utf8_lossy(bytes))?;
    assert_eq!(
        ParamSpace::new(space.dims().to_vec()).as_ref(),
        Ok(&space),
        "re-validates"
    );
    let again = ParamSpace::parse(&space.to_json().to_string_pretty()).expect("re-parses");
    assert_eq!(again, space, "a parsed space round-trips");
    let mut points = vec![midpoint(&space), sample(&space, &mut SimRng::new(0))];
    points.extend(neighbors(&space, &points[0]));
    for point in &points {
        for (d, v) in point.iter().enumerate() {
            assert!(space.contains(d, v), "dim {d} out of range: {v:?}");
        }
        space.policy(point);
    }
    Ok(space)
}

/// Every truncation and every single-bit flip at every offset of the
/// built-in space file. A strict prefix never closes the top-level
/// object, so truncations must all be errors.
#[test]
fn space_file_corruption_sweep_at_every_offset() {
    let text = default_space_text();
    let bytes = text.as_bytes();
    assert_eq!(parse_bytes(bytes).unwrap(), ParamSpace::default_space());
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

/// Range bounds at the edges of their types never panic the parser, the
/// validator or the samplers.
#[test]
fn space_file_extreme_bounds_never_panic() {
    let base = default_space_text();
    let extremes = [
        "0",
        "-1",
        "1e308",
        "-1e308",
        "5e-324",
        "18446744073709551615",
        "18446744073709551616",
        "null",
        "\"x\"",
        "[]",
    ];
    for key in ["\"min\": ", "\"max\": "] {
        for (start, _) in base.match_indices(key) {
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

/// Regression: float midpoints at the edges of f64 left the range — a
/// subnormal log-range minimum underflowed the geometric mean to 0, and
/// two huge bounds overflowed the arithmetic mean to infinity.
#[test]
fn midpoints_of_extreme_float_ranges_stay_in_bounds() {
    for (min, max, log) in [
        (5e-324, 0.2, true),
        (1e308, 1e308, false),
        (1e308, f64::MAX, false),
    ] {
        let space = ParamSpace::new(vec![Dim {
            name: "min-sigma".into(),
            kind: DimKind::Float { min, max, log },
        }])
        .expect("a finite, ordered, positive range validates");
        let mid = midpoint(&space);
        assert!(
            space.contains(0, &mid[0]),
            "[{min}, {max}] log={log}: {:?}",
            mid[0]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes replacing a random span of the built-in space file.
    #[test]
    fn space_file_splices_never_panic(
        at_seed in any::<u64>(),
        len_seed in any::<u64>(),
        insert in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut bytes = default_space_text().into_bytes();
        let at = (at_seed % bytes.len() as u64) as usize;
        let end = at + (len_seed % 8) as usize;
        bytes.splice(at..end.min(bytes.len()), insert);
        let _ = parse_bytes(&bytes);
    }

    /// Several bit flips at once, anywhere in the built-in space file.
    #[test]
    fn space_file_bit_flips_never_panic(
        flips in prop::collection::vec((any::<u64>(), 0u8..8), 1..6),
    ) {
        let mut bytes = default_space_text().into_bytes();
        for (pos_seed, bit) in flips {
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << bit;
        }
        let _ = parse_bytes(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn valid_spaces_round_trip_through_json(raw in prop::collection::vec(raw_dim_strategy(), 1..=6)) {
        let space = build_valid_space(&raw);
        let text = space.to_json().to_string_pretty();
        let back = ParamSpace::parse(&text).expect("serialized spaces re-validate");
        prop_assert_eq!(back, space);
    }

    #[test]
    fn samples_midpoint_and_neighbors_stay_in_bounds(
        raw in prop::collection::vec(raw_dim_strategy(), 1..=6),
        seed in 0u64..1_000,
    ) {
        let space = build_valid_space(&raw);
        let mut rng = SimRng::new(seed);
        let mut points = vec![midpoint(&space), sample(&space, &mut rng)];
        let drawn = points[1].clone();
        points.extend(neighbors(&space, &drawn));
        for point in &points {
            prop_assert_eq!(point.len(), space.dims().len());
            for (d, v) in point.iter().enumerate() {
                prop_assert!(
                    space.contains(d, v),
                    "dim {} out of range: {:?}", d, v
                );
            }
            // Every in-space point maps onto params and a policy spec
            // that parses back (the cache/wire identity).
            let spec = space.policy(point).spec();
            prop_assert!(
                spec.parse::<seer_harness::PolicyKind>().is_ok(),
                "spec must round-trip: {}", spec
            );
        }
    }

    #[test]
    fn arbitrary_dimensions_validate_or_error_but_never_panic(
        names in prop::collection::vec(0usize..8, 0..6),
        kinds in prop::collection::vec(0usize..3, 0..6),
        ints in prop::collection::vec((any::<u64>(), any::<u64>()), 0..6),
        // Raw bit patterns: NaN, infinities, subnormals all reachable.
        float_bits in prop::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 0..6),
        options in prop::collection::vec(prop::collection::vec(0u8..4, 0..3), 0..6),
    ) {
        let knob_names = ["window", "climb", "decay", "min-sigma", "th1", "th2", "", "bogus"];
        let n = names.len().min(kinds.len()).min(ints.len()).min(float_bits.len()).min(options.len());
        let dims: Vec<Dim> = (0..n)
            .map(|i| {
                let kind = match kinds[i] {
                    0 => DimKind::Int { min: ints[i].0, max: ints[i].1 },
                    1 => DimKind::Float {
                        min: f64::from_bits(float_bits[i].0),
                        max: f64::from_bits(float_bits[i].1),
                        log: float_bits[i].2,
                    },
                    _ => DimKind::Choice {
                        options: options[i]
                            .iter()
                            .map(|&b| match b {
                                0 => "off".to_string(),
                                other => other.to_string(),
                            })
                            .collect(),
                    },
                };
                Dim { name: knob_names[names[i]].to_string(), kind }
            })
            .collect();
        // Either outcome is fine; reaching this line without a panic is
        // the property. When the space validates, sampling must too.
        if let Ok(space) = ParamSpace::new(dims) {
            let mut rng = SimRng::new(0);
            let p = sample(&space, &mut rng);
            for (d, v) in p.iter().enumerate() {
                prop_assert!(space.contains(d, v));
            }
        }
    }

    #[test]
    fn inverted_ranges_are_rejected(lo in 1u64..1000, span in 1u64..1000) {
        let dims = vec![Dim {
            name: "window".into(),
            kind: DimKind::Int { min: lo + span, max: lo },
        }];
        prop_assert!(ParamSpace::new(dims).is_err());
    }
}

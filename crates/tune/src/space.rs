//! `ParamSpace`: the pure-data search-space specification.
//!
//! A space is a list of named dimensions over Seer's scheduling knobs
//! (see [`seer::SeerParams`]): integer ranges, linear or logarithmic
//! float ranges, and categorical choices. Spaces parse from and
//! serialize to the workspace's hand-rolled JSON, validate fully
//! (impossible ranges are errors, degenerate ones warn once and
//! collapse to constants), and map sampled points onto `SeerParams`.

use std::sync::Once;

use seer::SeerParams;
use seer_harness::{PolicyKind, TunedParams};
use seer_store::{Json, ToJson};

/// The knob a dimension name is allowed to drive, with its value shape.
///
/// The tuner is not a generic optimizer: every dimension must address a
/// real `SeerParams` field, so a typo in a space file fails validation
/// instead of silently searching nothing.
const KNOBS: [(&str, &str); 6] = [
    ("window", "int"),
    ("climb", "int"),
    ("decay", "int-or-choice"),
    ("min-sigma", "float"),
    ("th1", "float"),
    ("th2", "float"),
];

/// One named dimension of a [`ParamSpace`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dim {
    /// Knob name; must be one of `window`, `climb`, `decay`,
    /// `min-sigma`, `th1`, `th2`.
    pub name: String,
    /// The value range or choice set.
    pub kind: DimKind,
}

/// The range shape of a dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum DimKind {
    /// Inclusive integer range.
    Int {
        /// Lower bound (inclusive).
        min: u64,
        /// Upper bound (inclusive).
        max: u64,
    },
    /// Inclusive float range, sampled linearly or log-uniformly.
    Float {
        /// Lower bound (inclusive; must be `> 0` when `log`).
        min: f64,
        /// Upper bound (inclusive).
        max: f64,
        /// Sample `exp(uniform(ln min, ln max))` instead of
        /// `uniform(min, max)` — the right prior for scale-like knobs
        /// such as `min-sigma`.
        log: bool,
    },
    /// Categorical choice over explicit option strings.
    Choice {
        /// The options, in declaration order (order matters: samplers
        /// index into it and hill-climbing steps to adjacent entries).
        options: Vec<String>,
    },
}

/// One sampled coordinate. Floats are compared by bit pattern so points
/// are usable as exact identities; choices are stored as indices into
/// the dimension's option list.
#[derive(Debug, Clone, Copy)]
pub enum ParamValue {
    /// Value of an [`DimKind::Int`] dimension.
    Int(u64),
    /// Value of a [`DimKind::Float`] dimension.
    Float(f64),
    /// Index into a [`DimKind::Choice`] dimension's options.
    Choice(usize),
}

impl PartialEq for ParamValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ParamValue::Int(a), ParamValue::Int(b)) => a == b,
            (ParamValue::Float(a), ParamValue::Float(b)) => a.to_bits() == b.to_bits(),
            (ParamValue::Choice(a), ParamValue::Choice(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ParamValue {}

/// One point of the space: a value per dimension, in dimension order.
pub type Point = Vec<ParamValue>;

/// A validation or parse failure. Never a panic: every malformed space
/// file or JSON shape lands here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceError(pub String);

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid parameter space: {}", self.0)
    }
}

impl std::error::Error for SpaceError {}

/// A validated search space.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace {
    dims: Vec<Dim>,
}

static DEGENERATE_WARNING: Once = Once::new();

impl ParamSpace {
    /// Validates and wraps `dims`.
    ///
    /// Errors on: no dimensions, duplicate or unknown names, a name
    /// whose kind does not fit the knob (e.g. a float `window`),
    /// inverted ranges (`min > max`), non-finite float bounds, log
    /// ranges touching zero, empty or duplicate choice sets, and
    /// `decay` options that are neither `off` nor a positive integer.
    ///
    /// Degenerate but well-formed ranges (`min == max`, a single
    /// choice) are accepted — the dimension collapses to a constant —
    /// with a once-per-process diagnostic on stderr.
    pub fn new(dims: Vec<Dim>) -> Result<Self, SpaceError> {
        if dims.is_empty() {
            return Err(SpaceError("a space needs at least one dimension".into()));
        }
        let mut seen: Vec<&str> = Vec::new();
        let mut degenerate: Vec<String> = Vec::new();
        for dim in &dims {
            if seen.contains(&dim.name.as_str()) {
                return Err(SpaceError(format!("duplicate dimension {:?}", dim.name)));
            }
            seen.push(&dim.name);
            let shape = KNOBS
                .iter()
                .find(|(name, _)| *name == dim.name)
                .map(|(_, shape)| *shape)
                .ok_or_else(|| {
                    SpaceError(format!(
                        "unknown knob {:?} (expected one of window, climb, decay, min-sigma, th1, th2)",
                        dim.name
                    ))
                })?;
            match &dim.kind {
                DimKind::Int { min, max } => {
                    if shape == "float" {
                        return Err(SpaceError(format!("{:?} is a float knob", dim.name)));
                    }
                    if min > max {
                        return Err(SpaceError(format!(
                            "{:?}: min {} > max {}",
                            dim.name, min, max
                        )));
                    }
                    // `window`/`climb` periods of zero can never run.
                    if *min == 0 && dim.name != "decay" {
                        return Err(SpaceError(format!("{:?}: min must be positive", dim.name)));
                    }
                    if min == max {
                        degenerate.push(format!("{}={}", dim.name, min));
                    }
                }
                DimKind::Float { min, max, log } => {
                    if shape != "float" {
                        return Err(SpaceError(format!("{:?} is not a float knob", dim.name)));
                    }
                    if !min.is_finite() || !max.is_finite() {
                        return Err(SpaceError(format!("{:?}: bounds must be finite", dim.name)));
                    }
                    if min > max {
                        return Err(SpaceError(format!(
                            "{:?}: min {} > max {}",
                            dim.name, min, max
                        )));
                    }
                    if *log && *min <= 0.0 {
                        return Err(SpaceError(format!(
                            "{:?}: log range needs min > 0, got {}",
                            dim.name, min
                        )));
                    }
                    if *min < 0.0 {
                        return Err(SpaceError(format!("{:?}: min must be >= 0", dim.name)));
                    }
                    if (dim.name == "th1" || dim.name == "th2") && *max > 1.0 {
                        return Err(SpaceError(format!("{:?}: max must be <= 1", dim.name)));
                    }
                    if min.to_bits() == max.to_bits() {
                        degenerate.push(format!("{}={}", dim.name, min));
                    }
                }
                DimKind::Choice { options } => {
                    if dim.name != "decay" {
                        return Err(SpaceError(format!(
                            "{:?} does not take categorical choices",
                            dim.name
                        )));
                    }
                    if options.is_empty() {
                        return Err(SpaceError(format!("{:?}: empty choice set", dim.name)));
                    }
                    let mut sorted = options.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    if sorted.len() != options.len() {
                        return Err(SpaceError(format!("{:?}: duplicate options", dim.name)));
                    }
                    for opt in options {
                        if opt != "off" && opt.parse::<u64>().map_or(true, |n| n == 0) {
                            return Err(SpaceError(format!(
                                "{:?}: option {:?} is neither \"off\" nor a positive integer",
                                dim.name, opt
                            )));
                        }
                    }
                    if options.len() == 1 {
                        degenerate.push(format!("{}={}", dim.name, options[0]));
                    }
                }
            }
        }
        if !degenerate.is_empty() {
            DEGENERATE_WARNING.call_once(|| {
                eprintln!(
                    "tune: warning: degenerate dimension(s) collapse to constants: {}",
                    degenerate.join(", ")
                );
            });
        }
        Ok(Self { dims })
    }

    /// The dimensions, in declaration (= point coordinate) order.
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// The default space `seer tune` searches when `--space` is absent:
    /// every knob, with ranges wide enough to matter and centred so the
    /// paper defaults are reachable.
    pub fn default_space() -> Self {
        Self::new(vec![
            Dim {
                name: "window".into(),
                kind: DimKind::Int { min: 50, max: 1200 },
            },
            Dim {
                name: "decay".into(),
                kind: DimKind::Choice {
                    options: vec!["off".into(), "4".into(), "16".into(), "64".into()],
                },
            },
            Dim {
                name: "min-sigma".into(),
                kind: DimKind::Float {
                    min: 0.005,
                    max: 0.2,
                    log: true,
                },
            },
            Dim {
                name: "th1".into(),
                kind: DimKind::Float {
                    min: 0.05,
                    max: 0.6,
                    log: false,
                },
            },
            Dim {
                name: "th2".into(),
                kind: DimKind::Float {
                    min: 0.5,
                    max: 0.95,
                    log: false,
                },
            },
        ])
        .expect("the built-in space validates")
    }

    /// Parses a JSON space document (see `to_json` for the shape).
    pub fn parse(text: &str) -> Result<Self, SpaceError> {
        let json = Json::parse(text).map_err(SpaceError)?;
        Self::from_json(&json)
    }

    /// Decodes `{"dims": [{"name", "type", ...}, ...]}`.
    pub fn from_json(json: &Json) -> Result<Self, SpaceError> {
        let dims_json = json.array_field("dims").map_err(SpaceError)?;
        let mut dims = Vec::with_capacity(dims_json.len());
        for dim in dims_json {
            let name = dim.str_field("name").map_err(SpaceError)?.to_string();
            let in_dim = |e: String| SpaceError(format!("{name:?}: {e}"));
            let ty = dim.str_field("type").map_err(in_dim)?;
            let kind = match ty {
                "int" => DimKind::Int {
                    min: dim.u64_field("min").map_err(in_dim)?,
                    max: dim.u64_field("max").map_err(in_dim)?,
                },
                "float" | "log-float" => DimKind::Float {
                    min: dim.f64_field("min").map_err(in_dim)?,
                    max: dim.f64_field("max").map_err(in_dim)?,
                    log: ty == "log-float",
                },
                "choice" => {
                    let options = dim
                        .array_field("options")
                        .map_err(in_dim)?
                        .iter()
                        .map(|o| {
                            o.as_str().map(str::to_string).ok_or_else(|| {
                                SpaceError(format!("{name:?}: options must be strings"))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    DimKind::Choice { options }
                }
                other => {
                    return Err(SpaceError(format!(
                        "{name:?}: unknown type {other:?} (int, float, log-float, choice)"
                    )))
                }
            };
            dims.push(Dim { name, kind });
        }
        Self::new(dims)
    }

    /// Serializes to the canonical JSON document; `from_json` of the
    /// result reproduces `self` exactly (floats render shortest
    /// round-trip).
    pub fn to_json(&self) -> Json {
        let dims = self
            .dims
            .iter()
            .map(|dim| match &dim.kind {
                DimKind::Int { min, max } => Json::object([
                    ("name", dim.name.to_json()),
                    ("type", "int".to_json()),
                    ("min", (*min).to_json()),
                    ("max", (*max).to_json()),
                ]),
                DimKind::Float { min, max, log } => Json::object([
                    ("name", dim.name.to_json()),
                    ("type", if *log { "log-float" } else { "float" }.to_json()),
                    ("min", (*min).to_json()),
                    ("max", (*max).to_json()),
                ]),
                DimKind::Choice { options } => Json::object([
                    ("name", dim.name.to_json()),
                    ("type", "choice".to_json()),
                    (
                        "options",
                        Json::Array(options.iter().map(|o| o.to_json()).collect()),
                    ),
                ]),
            })
            .collect();
        Json::object([("dims", Json::Array(dims))])
    }

    /// Renders `point` as a `{name: value}` JSON object (choices as
    /// their option strings).
    ///
    /// # Panics
    /// If `point` does not belong to this space.
    pub fn point_json(&self, point: &Point) -> Json {
        assert_eq!(point.len(), self.dims.len(), "point/space arity mismatch");
        Json::Object(
            self.dims
                .iter()
                .zip(point)
                .map(|(dim, value)| {
                    let v = match (value, &dim.kind) {
                        (ParamValue::Int(n), _) => (*n).to_json(),
                        (ParamValue::Float(f), _) => (*f).to_json(),
                        (ParamValue::Choice(i), DimKind::Choice { options }) => {
                            options[*i].to_json()
                        }
                        (ParamValue::Choice(_), _) => unreachable!("choice value on a range dim"),
                    };
                    (dim.name.clone(), v)
                })
                .collect(),
        )
    }

    /// Maps a point onto [`SeerParams`], starting from the paper
    /// defaults — dimensions absent from the space keep their default.
    ///
    /// # Panics
    /// If `point` does not belong to this space (wrong arity, value
    /// kind mismatching the dimension, out-of-range choice index). The
    /// samplers only produce in-space points.
    pub fn seer_params(&self, point: &Point) -> SeerParams {
        assert_eq!(point.len(), self.dims.len(), "point/space arity mismatch");
        let mut p = SeerParams::default();
        for (dim, value) in self.dims.iter().zip(point) {
            match (dim.name.as_str(), value, &dim.kind) {
                ("window", ParamValue::Int(n), _) => p.update_period_execs = *n,
                ("climb", ParamValue::Int(n), _) => p.climb_period_execs = *n,
                ("decay", ParamValue::Int(n), _) => {
                    p.decay_every_updates = if *n == 0 { None } else { Some(*n) };
                }
                ("decay", ParamValue::Choice(i), DimKind::Choice { options }) => {
                    p.decay_every_updates = match options[*i].as_str() {
                        "off" => None,
                        n => Some(n.parse().expect("validated as a positive integer")),
                    };
                }
                ("min-sigma", ParamValue::Float(f), _) => p.min_sigma = *f,
                ("th1", ParamValue::Float(f), _) => p.th1 = *f,
                ("th2", ParamValue::Float(f), _) => p.th2 = *f,
                (name, value, _) => panic!("value {value:?} does not fit dimension {name:?}"),
            }
        }
        p
    }

    /// The tuned policy a point denotes — the identity used for cache
    /// keys, wire dispatch, and the leaderboard.
    pub fn policy(&self, point: &Point) -> PolicyKind {
        PolicyKind::SeerTuned(TunedParams::from_params(self.seer_params(point)))
    }

    /// True when `value` lies inside dimension `d`'s range.
    pub fn contains(&self, d: usize, value: &ParamValue) -> bool {
        match (&self.dims[d].kind, value) {
            (DimKind::Int { min, max }, ParamValue::Int(n)) => min <= n && n <= max,
            (DimKind::Float { min, max, .. }, ParamValue::Float(f)) => {
                f.is_finite() && *min <= *f && *f <= *max
            }
            (DimKind::Choice { options }, ParamValue::Choice(i)) => *i < options.len(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float_dim(name: &str, min: f64, max: f64, log: bool) -> Dim {
        Dim {
            name: name.into(),
            kind: DimKind::Float { min, max, log },
        }
    }

    #[test]
    fn default_space_round_trips_through_json() {
        let space = ParamSpace::default_space();
        let text = space.to_json().to_string_pretty();
        let back = ParamSpace::parse(&text).unwrap();
        assert_eq!(back, space);
    }

    #[test]
    fn inverted_and_malformed_ranges_are_errors() {
        for (dims, what) in [
            (vec![], "empty"),
            (
                vec![Dim {
                    name: "window".into(),
                    kind: DimKind::Int { min: 10, max: 5 },
                }],
                "inverted int",
            ),
            (vec![float_dim("th1", 0.5, 0.2, false)], "inverted float"),
            (vec![float_dim("min-sigma", 0.0, 0.1, true)], "log from zero"),
            (vec![float_dim("th2", 0.5, 1.5, false)], "threshold above 1"),
            (vec![float_dim("nope", 0.0, 1.0, false)], "unknown knob"),
            (vec![float_dim("window", 1.0, 2.0, false)], "float window"),
            (
                vec![Dim {
                    name: "th1".into(),
                    kind: DimKind::Choice { options: vec!["a".into()] },
                }],
                "choice threshold",
            ),
            (
                vec![Dim {
                    name: "decay".into(),
                    kind: DimKind::Choice { options: vec![] },
                }],
                "empty choices",
            ),
            (
                vec![Dim {
                    name: "decay".into(),
                    kind: DimKind::Choice { options: vec!["0".into()] },
                }],
                "zero decay option",
            ),
            (
                vec![
                    float_dim("th1", 0.1, 0.2, false),
                    float_dim("th1", 0.1, 0.2, false),
                ],
                "duplicate",
            ),
        ] {
            assert!(ParamSpace::new(dims).is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn degenerate_ranges_collapse_but_validate() {
        let space = ParamSpace::new(vec![Dim {
            name: "window".into(),
            kind: DimKind::Int { min: 300, max: 300 },
        }])
        .unwrap();
        let p = space.seer_params(&vec![ParamValue::Int(300)]);
        assert_eq!(p.update_period_execs, 300);
    }

    #[test]
    fn points_map_onto_params_with_defaults_for_absent_knobs() {
        let space = ParamSpace::new(vec![
            Dim {
                name: "window".into(),
                kind: DimKind::Int { min: 50, max: 1200 },
            },
            Dim {
                name: "decay".into(),
                kind: DimKind::Choice {
                    options: vec!["off".into(), "16".into()],
                },
            },
        ])
        .unwrap();
        let p = space.seer_params(&vec![ParamValue::Int(150), ParamValue::Choice(1)]);
        assert_eq!(p.update_period_execs, 150);
        assert_eq!(p.decay_every_updates, Some(16));
        // Untouched knobs stay at the paper values.
        assert_eq!(p.th1, SeerParams::default().th1);
        let off = space.seer_params(&vec![ParamValue::Int(150), ParamValue::Choice(0)]);
        assert_eq!(off.decay_every_updates, None);
    }

    #[test]
    fn bad_json_shapes_are_errors_not_panics() {
        for text in [
            "",
            "[]",
            "{}",
            r#"{"dims": 3}"#,
            r#"{"dims": [{"type": "int"}]}"#,
            r#"{"dims": [{"name": "window"}]}"#,
            r#"{"dims": [{"name": "window", "type": "mystery"}]}"#,
            r#"{"dims": [{"name": "window", "type": "int", "min": 1}]}"#,
            r#"{"dims": [{"name": "window", "type": "int", "min": -3, "max": 5}]}"#,
            r#"{"dims": [{"name": "decay", "type": "choice", "options": [1, 2]}]}"#,
        ] {
            assert!(ParamSpace::parse(text).is_err(), "{text:?} must fail");
        }
    }
}

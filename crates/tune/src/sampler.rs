//! Deterministic samplers over a [`ParamSpace`].
//!
//! Sampling consumes a caller-provided [`SimRng`] stream; the drivers
//! derive one stream per proposal index, so the proposed points are a
//! pure function of `(space, seed)` — independent of evaluation order,
//! `--jobs`, and worker count.

use seer_sim::SimRng;

use crate::space::{DimKind, ParamSpace, ParamValue, Point};

/// Draws one point uniformly from `space` (log-uniformly on log-float
/// dimensions). Every returned value lies inside its dimension's range,
/// including on degenerate (constant) dimensions.
pub fn sample(space: &ParamSpace, rng: &mut SimRng) -> Point {
    space
        .dims()
        .iter()
        .map(|dim| match &dim.kind {
            DimKind::Int { min, max } => ParamValue::Int(rng.range_inclusive(*min, *max)),
            DimKind::Float { min, max, log } => {
                let u = rng.unit();
                let v = if *log {
                    (min.ln() + u * (max.ln() - min.ln())).exp()
                } else {
                    min + u * (max - min)
                };
                // Rounding in the interpolation may land a hair outside.
                ParamValue::Float(v.clamp(*min, *max))
            }
            DimKind::Choice { options } => {
                ParamValue::Choice(rng.below(options.len() as u64) as usize)
            }
        })
        .collect()
}

/// The centre of the space: integer midpoints, arithmetic float
/// midpoints (geometric on log dimensions), the first choice option.
/// The coordinate-hill-climbing driver starts here.
pub fn midpoint(space: &ParamSpace) -> Point {
    space
        .dims()
        .iter()
        .map(|dim| match &dim.kind {
            DimKind::Int { min, max } => ParamValue::Int(min + (max - min) / 2),
            DimKind::Float { min, max, log } => {
                let mid = if *log {
                    (min * max).sqrt()
                } else {
                    (min + max) / 2.0
                };
                // At the edges of f64 the product underflows or the sum
                // overflows; inside the range the clamp is the identity.
                ParamValue::Float(mid.clamp(*min, *max))
            }
            DimKind::Choice { .. } => ParamValue::Choice(0),
        })
        .collect()
}

/// Number of steps a hill-climbing pass divides each range into.
const CLIMB_STEPS: f64 = 8.0;

/// The coordinate neighbours of `point`: for each dimension, one step
/// down and one step up (an eighth of the range; adjacent options on
/// choice dimensions), clamped into the space and deduplicated against
/// the origin. Deterministic — no randomness involved.
pub fn neighbors(space: &ParamSpace, point: &Point) -> Vec<Point> {
    let mut out = Vec::new();
    for (d, dim) in space.dims().iter().enumerate() {
        let steps: Vec<ParamValue> = match (&dim.kind, &point[d]) {
            (DimKind::Int { min, max }, ParamValue::Int(v)) => {
                let step = ((max - min) / CLIMB_STEPS as u64).max(1);
                vec![
                    ParamValue::Int(v.saturating_sub(step).max(*min)),
                    ParamValue::Int(v.saturating_add(step).min(*max)),
                ]
            }
            (DimKind::Float { min, max, log }, ParamValue::Float(v)) => {
                if *log {
                    let factor = (max / min).powf(1.0 / CLIMB_STEPS);
                    vec![
                        ParamValue::Float((v / factor).clamp(*min, *max)),
                        ParamValue::Float((v * factor).clamp(*min, *max)),
                    ]
                } else {
                    let step = (max - min) / CLIMB_STEPS;
                    vec![
                        ParamValue::Float((v - step).clamp(*min, *max)),
                        ParamValue::Float((v + step).clamp(*min, *max)),
                    ]
                }
            }
            (DimKind::Choice { options }, ParamValue::Choice(i)) => {
                let mut s = Vec::new();
                if *i > 0 {
                    s.push(ParamValue::Choice(i - 1));
                }
                if i + 1 < options.len() {
                    s.push(ParamValue::Choice(i + 1));
                }
                s
            }
            _ => unreachable!("point shape validated against the space"),
        };
        for value in steps {
            if value != point[d] {
                let mut n = point.clone();
                n[d] = value;
                out.push(n);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Dim;

    #[test]
    fn samples_stay_inside_and_are_seed_deterministic() {
        let space = ParamSpace::default_space();
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..200 {
            let p = sample(&space, &mut a);
            assert_eq!(p, sample(&space, &mut b), "same seed, same stream");
            for (d, v) in p.iter().enumerate() {
                assert!(space.contains(d, v), "dim {d} out of range: {v:?}");
            }
        }
    }

    #[test]
    fn neighbors_stay_inside_and_differ_from_origin() {
        let space = ParamSpace::default_space();
        let mut rng = SimRng::new(3);
        for _ in 0..50 {
            let p = sample(&space, &mut rng);
            for n in neighbors(&space, &p) {
                assert_ne!(n, p);
                for (d, v) in n.iter().enumerate() {
                    assert!(space.contains(d, v));
                }
            }
        }
    }

    #[test]
    fn degenerate_dimension_yields_no_neighbors() {
        let space = ParamSpace::new(vec![Dim {
            name: "window".into(),
            kind: crate::space::DimKind::Int { min: 300, max: 300 },
        }])
        .unwrap();
        let p = midpoint(&space);
        assert_eq!(p, vec![ParamValue::Int(300)]);
        assert!(neighbors(&space, &p).is_empty());
    }
}

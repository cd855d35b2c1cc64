//! Text rendering of the experiment results: ASCII series for the figures
//! and aligned tables, plus optional JSON export for downstream plotting.

use std::fmt::Write as _;

use seer_store::{Json, ToJson};

/// A named series of `(x, y)` points (one curve of a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (e.g. a policy name).
    pub label: String,
    /// `(threads, speedup)` points.
    pub points: Vec<(usize, f64)>,
}

impl ToJson for Series {
    fn to_json(&self) -> Json {
        Json::object([
            ("label", self.label.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

/// One panel of a figure: several series over a shared x-axis.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel title (e.g. a benchmark name).
    pub title: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Panel {
    /// Renders the panel as an aligned text table: one row per x value,
    /// one column per series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "--- {} ---", self.title);
        let _ = write!(out, "{:>8}", "threads");
        for s in &self.series {
            let _ = write!(out, "{:>12}", s.label);
        }
        let _ = writeln!(out);
        let xs: Vec<usize> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{x:>8}");
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, y)) => {
                        let _ = write!(out, "{y:>12.3}");
                    }
                    None => {
                        let _ = write!(out, "{:>12}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

impl ToJson for Panel {
    fn to_json(&self) -> Json {
        Json::object([
            ("title", self.title.to_json()),
            ("series", self.series.to_json()),
        ])
    }
}

/// A labelled table of percentage rows (Table 3 style).
#[derive(Debug, Clone)]
pub struct PercentTable {
    /// Table title.
    pub title: String,
    /// Column headers (e.g. thread counts).
    pub columns: Vec<String>,
    /// `(row label, values)` — values are fractions rendered as percent.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl PercentTable {
    /// Renders the table with percentages rounded to integers, as in the
    /// paper's Table 3.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "--- {} ---", self.title);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([12])
            .max()
            .unwrap_or(12);
        let _ = write!(out, "{:<label_w$}", "");
        for c in &self.columns {
            let _ = write!(out, "{c:>8}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:<label_w$}");
            for v in values {
                let _ = write!(out, "{:>8.0}", v * 100.0);
            }
            let _ = writeln!(out);
        }
        out
    }
}

impl ToJson for PercentTable {
    fn to_json(&self) -> Json {
        Json::object([
            ("title", self.title.to_json()),
            ("columns", self.columns.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

/// Writes `value` as pretty JSON to the path named by the
/// `SEER_REPORT_JSON` environment variable, if set. Returns whether a file
/// was written. Lets plotting scripts consume exact numbers without
/// scraping the text output.
pub fn maybe_write_json<T: ToJson>(value: &T) -> std::io::Result<bool> {
    match std::env::var("SEER_REPORT_JSON") {
        Ok(path) if !path.is_empty() => {
            let json = value.to_json().to_string_pretty();
            std::fs::write(&path, json)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_renders_aligned_rows() {
        let p = Panel {
            title: "genome".into(),
            series: vec![
                Series {
                    label: "RTM".into(),
                    points: vec![(1, 0.9), (2, 1.5)],
                },
                Series {
                    label: "Seer".into(),
                    points: vec![(1, 0.88), (2, 1.62)],
                },
            ],
        };
        let text = p.render();
        assert!(text.contains("genome"));
        assert!(text.contains("RTM"));
        assert!(text.contains("1.500"));
        assert!(text.contains("1.620"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn percent_table_rounds() {
        let t = PercentTable {
            title: "modes".into(),
            columns: vec!["2t".into(), "4t".into()],
            rows: vec![("HTM no locks".into(), vec![0.756, 0.52])],
        };
        let text = t.render();
        assert!(text.contains("76"));
        assert!(text.contains("52"));
    }

    #[test]
    fn json_export_skipped_without_env() {
        let p = Panel {
            title: "x".into(),
            series: vec![],
        };
        // Not set in the test environment.
        std::env::remove_var("SEER_REPORT_JSON");
        assert!(!maybe_write_json(&p).unwrap());
    }
}

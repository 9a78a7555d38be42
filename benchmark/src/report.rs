//! Named metrics and the result line.

use crate::stats::Tally;

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// A JSON number with all its digits; non-finite values become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The one-line result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        body.join(", ")
    )
}

/// Renders a fixed-width table: a header row and one row per entry.
pub fn table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = *w)).collect();
        padded.join("  ").trim_end().to_string()
    };
    let mut out = line(header);
    for row in rows {
        out.push('\n');
        out.push_str(&line(row));
    }
    out
}

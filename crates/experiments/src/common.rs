//! Shared experiment infrastructure: result tables, statistics and the
//! interest overlay of the event-routing experiments.

use std::fmt;

use subsum_broker::{propagate, MergedSummary};
use subsum_core::{ArithWidth, BrokerSummary, SummaryCodec};
use subsum_net::NodeId;
use subsum_types::{BrokerId, IdLayout, LocalSubId, Schema};
use subsum_workload::popularity::{interest_schema, interest_subscription};

use crate::config::ExperimentConfig;

/// The overlay the event-routing experiments (Fig. 10, latency, virtual
/// degrees) publish into: every broker of `cfg.topology` holds its one
/// interest-marker subscription, and Algorithm 2 has propagated the
/// summaries. Returns the marker schema and each broker's stored merged
/// summary. Draws no randomness.
pub(crate) fn interest_overlay(cfg: &ExperimentConfig) -> (Schema, Vec<MergedSummary>) {
    let n = cfg.topology.len();
    let schema = interest_schema();
    let layout = IdLayout::new(n as u64, 16, schema.len() as u32).expect("tiny schema fits");
    let codec = SummaryCodec::new(layout, ArithWidth::Four);
    let own: Vec<BrokerSummary> = (0..n)
        .map(|b| {
            let mut s = BrokerSummary::new(schema.clone());
            s.insert(
                BrokerId(b as u16),
                LocalSubId(0),
                &interest_subscription(&schema, b as NodeId),
            );
            s
        })
        .collect();
    let stored = propagate(&cfg.topology, &own, &codec)
        .expect("ids fit the layout")
        .stored;
    (schema, stored)
}

/// A labelled result table: one experiment's regenerated figure/table.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// The experiment id, e.g. `"fig8"`.
    pub name: String,
    /// A one-line description of what the paper figure shows.
    pub caption: String,
    /// Column headers; the first column is the x-axis.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, caption: impl Into<String>, columns: &[&str]) -> Self {
        ResultTable {
            name: name.into(),
            caption: caption.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The column index for a header name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The values of one column.
    pub fn column_values(&self, name: &str) -> Vec<f64> {
        match self.column(name) {
            Some(i) => self.rows.iter().map(|r| r[i]).collect(),
            None => Vec::new(),
        }
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format_num(*v)).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

fn format_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

impl fmt::Display for ResultTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.name, self.caption)?;
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|r| format_num(r[i]).len())
                    .chain([c.len()])
                    .max()
                    .unwrap_or(c.len())
            })
            .collect();
        for (c, w) in self.columns.iter().zip(&widths) {
            write!(f, "{c:>w$}  ", w = w)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (v, w) in row.iter().zip(&widths) {
                write!(f, "{:>w$}  ", format_num(*v), w = w)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Arithmetic mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() as f64 - 1.0)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = ResultTable::new("fig0", "test", &["x", "y"]);
        t.push(vec![1.0, 10.0]);
        t.push(vec![2.0, 20.5]);
        assert_eq!(t.column("y"), Some(1));
        assert_eq!(t.column_values("y"), vec![10.0, 20.5]);
        let csv = t.to_csv();
        assert!(csv.starts_with("x,y\n1,10\n2,20.500"));
        let rendered = format!("{t}");
        assert!(rendered.contains("fig0"));
        assert!(rendered.contains("20.500"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = ResultTable::new("t", "c", &["a", "b"]);
        t.push(vec![1.0]);
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.138).abs() < 0.01);
        assert_eq!(stddev(&[1.0]), 0.0);
    }
}

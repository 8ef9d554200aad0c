//! Shared output helpers for the experiments and the baseline bins:
//! markdown tables, number formatting, JSON string escaping, and the
//! median.

use std::fmt::Write as _;

/// A simple markdown table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        debug_assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data row was added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Formats a duration in seconds with engineering-friendly precision
/// (matching the paper's log-scale running-time plots).
pub fn fmt_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.2}s")
    }
}

/// Formats an influence value compactly.
pub fn fmt_value(v: f64) -> String {
    if v == f64::NEG_INFINITY {
        "—".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3e}")
    }
}

/// Escapes `\` and `"` for a JSON string literal (the `BENCH_*.json`
/// writers only embed dataset, solver, and status names).
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The median of `samples` (sorted in place): the middle element, the
/// upper middle for an even count. Panics on an empty slice.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        t.row(["x", "y"]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| x | y |"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn formats_times() {
        assert_eq!(fmt_secs(0.0000005), "0.5µs");
        assert_eq!(fmt_secs(0.005), "5.00ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
    }

    #[test]
    fn formats_values() {
        assert_eq!(fmt_value(f64::NEG_INFINITY), "—");
        assert_eq!(fmt_value(12345.6), "12346");
        assert_eq!(fmt_value(12.345), "12.35");
        assert_eq!(fmt_value(0.000123), "1.230e-4");
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("email"), "email");
    }

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
    }
}

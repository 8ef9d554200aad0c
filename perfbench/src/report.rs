//! Metric records, provenance, and the one JSON writer.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported metric.
pub struct Metric {
    /// Name, as listed in BENCHMARK.json where it is gated.
    pub name: String,
    /// The measured value; `None` when the sample does not support it
    /// (e.g. a p99 with fewer than 10 samples beyond it).
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(
        name: impl Into<String>,
        value: Option<f64>,
        unit: &'static str,
        samples: usize,
    ) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }

    /// The human-readable line.
    pub fn line(&self) -> String {
        match self.value {
            Some(v) => format!(
                "{:<34} {v:>14.6} {:<6} (n={})",
                self.name, self.unit, self.samples
            ),
            None => format!(
                "{:<34} {:>14} {:<6} (n={}; too few samples for this statistic)",
                self.name, "n/a", self.unit, self.samples
            ),
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form
/// carries; `null` for a missing or non-finite value.
pub fn json_num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:?}"),
        _ => "null".to_string(),
    }
}

/// `{"name": {"value": .., "unit": ..}, ..}` over `metrics`.
pub fn metrics_object(metrics: &[&Metric], with_samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Where and what the numbers were measured on.
pub struct Provenance {
    /// `(key, JSON value)` pairs.
    pub fields: Vec<(&'static str, String)>,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Provenance {
    /// Host and build facts; `dir` is where `git` is asked for the
    /// revision (a checkout without history reports `unknown`).
    pub fn host(dir: &Path) -> Provenance {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let rustc = command_line("rustc", &["--version"], dir).unwrap_or_else(|| "unknown".into());
        let rev =
            command_line("git", &["rev-parse", "HEAD"], dir).unwrap_or_else(|| "unknown".into());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        Provenance {
            fields: vec![
                ("nproc", nproc.to_string()),
                ("rustc", json_str(&rustc)),
                ("git_rev", json_str(&rev)),
                ("profile", json_str(profile)),
            ],
        }
    }

    /// Adds a field whose value is already JSON.
    pub fn push(&mut self, key: &'static str, json: String) {
        self.fields.push((key, json));
    }

    /// The fields as one JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_values_render_exactly() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(Some(1.5)), "1.5");
        assert_eq!(json_num(Some(0.1 + 0.2)), "0.30000000000000004");
        assert_eq!(json_num(Some(3.0)), "3.0");
        assert_eq!(json_num(Some(f64::NAN)), "null");
        assert_eq!(json_num(None), "null");
        let m = Metric::new("query_p50_ms", Some(1.25), "ms", 40);
        assert_eq!(
            metrics_object(&[&m], true),
            "{\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\", \"samples\": 40}}"
        );
    }
}

//! Benchmark-owned spans, recorded around calls into the program's
//! public functions (the program itself is not instrumented).
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! clock origin), the index of the span that caused it, and the id of
//! the client request it belongs to. Spans stay in memory and are
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Which call the span times, e.g. `engine.run_batch_pinned`.
    pub name: &'static str,
    /// Start, in nanoseconds since the clock origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the clock origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// The client request this span serves, if known.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds from the run's clock origin to `at`.
pub fn ns(origin: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(origin).as_nanos() as u64
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (children clipped to the parent,
/// overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (s, e) = (
                span.start_ns.max(parent.start_ns),
                span.end_ns.min(parent.end_ns),
            );
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(s, e) in kids.iter() {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                }
                reach = reach.max(e);
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The spans as JSON lines: `{"name","start_ns","end_ns","parent","request"}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    for span in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            opt(span.parent.map(|p| p as u64)),
            opt(span.request),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: Some(7),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("request", 0, 100, None),
            // Two overlapping children cover [10, 50) once: 40 ns.
            span("batch", 10, 40, Some(0)),
            span("batch", 30, 50, Some(0)),
            // A child sticking out of its parent is clipped: [90, 100).
            span("apply", 90, 130, Some(0)),
            // A grandchild only reduces its own parent.
            span("solve", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 22, 20, 40, 8]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("request", 5, 9, None)];
        assert_eq!(self_times_ns(&spans), vec![4]);
    }

    #[test]
    fn spans_render_as_json_lines() {
        let origin = Instant::now();
        let mut root = span("client.call", 0, ns(origin, origin), None);
        root.request = None;
        let lines = to_json_lines(&[root, span("engine.run_batch_pinned", 3, 4, Some(0))]);
        assert_eq!(
            lines,
            "{\"name\":\"client.call\",\"start_ns\":0,\"end_ns\":0,\"parent\":null,\"request\":null}\n\
             {\"name\":\"engine.run_batch_pinned\",\"start_ns\":3,\"end_ns\":4,\"parent\":0,\"request\":7}\n"
        );
    }
}

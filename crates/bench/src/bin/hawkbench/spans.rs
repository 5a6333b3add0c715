//! In-memory spans for the traced run.
//!
//! A span is recorded from the benchmark's own code around a call into a
//! layer's public API: name, start, end, and the span that was open when it
//! started. Spans stay in memory until the run ends and are then written to
//! one file per workload. Nothing here runs during an untraced run.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

pub struct Tracer {
    /// The workload every span of this tracer belongs to — the shared
    /// identifier of one traced run.
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::with_capacity(256),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent,
        });
        self.open.push(id);
        // Read the clock last so the bookkeeping above is outside the span.
        self.spans[id].start_ns = self.now_ns();
        SpanId(id)
    }

    /// Closes `id` and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span: spans nest.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0].end_ns = end;
        self.spans[id.0].duration_ns() as f64 / 1e9
    }

    /// Times `f` as one span and returns its result with the duration in
    /// seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let result = f();
        let secs = self.exit(id);
        (result, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file's content: every span with its self time.
    pub fn to_json(&self) -> Json {
        let selfs = self_times_ns(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (span, self_ns))| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(&span.name)),
                    ("start_ns", Json::Num(span.start_ns as f64)),
                    ("end_ns", Json::Num(span.end_ns as f64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("self_ns", Json::Num(self_ns as f64)),
                    ("workload", Json::str(&self.workload)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of each span: its duration minus the durations of its direct
/// children (children of one span never overlap: the tracer is a stack).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] = selfs[parent].saturating_sub(span.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("cell", 0, 100, None),
            span("construct", 5, 25, Some(0)),
            span("loop", 30, 90, Some(0)),
            span("chunk", 40, 60, Some(2)),
            span("replay", 200, 230, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 40, 20, 30]);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut t = Tracer::new("w");
        let outer = t.enter("outer");
        let (value, secs) = t.time("inner", || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        t.exit(outer);
        let root = t.enter("second");
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let file = t.to_json();
        assert_eq!(file.get("workload").and_then(Json::as_str), Some("w"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new("w");
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}

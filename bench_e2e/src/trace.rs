//! In-memory spans around the calls into each layer, written out as JSON
//! lines when the traced run ends.
//!
//! The three depths of one request (remote call, in-process call, direct
//! layer calls) are replayed one after the other, so a child's interval does
//! not lie inside its parent's.  Self time is therefore the span's duration
//! minus the summed durations of its children, not minus the covered part
//! of its own interval.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::metrics::json_string;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Position of the request in the replayed stream; spans of one request
    /// share it.
    pub request_id: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request_id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let result = f();
        let id = self.record(name, request_id, parent, start, Instant::now());
        (result, id)
    }

    /// Records a span over an interval the caller timed itself, for calls
    /// that are only worth a span once their outcome is known.
    pub fn record(
        &mut self,
        name: &'static str,
        request_id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(Span { name, start_ns: ns(start), end_ns: ns(end), request_id, parent })
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by span id: its duration minus its
    /// children's, floored at zero.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.duration_ns();
            }
        }
        self.spans.iter().zip(children).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// Durations of the spans called `name` among those recorded from
    /// `first` on, in recording order.
    pub fn durations_ns(&self, name: &str, first: SpanId) -> Vec<u64> {
        self.spans[first..].iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
    }

    /// One JSON object per line:
    /// `{"id", "name", "start_ns", "end_ns", "request_id", "parent"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"request_id\": {}, \"parent\": {parent}}}",
                json_string(s.name),
                s.start_ns,
                s.end_ns,
                s.request_id,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, request_id: 7, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        // The depths are replayed at different times: the children's
        // intervals lie outside the parent's.
        let remote = t.push(span("remote", 0, 300, None));
        let execute = t.push(span("serve.execute", 1000, 1120, Some(remote)));
        t.push(span("eq_proto.encode_request", 2000, 2030, Some(remote)));
        t.push(span("eq_hashindex.knn", 3000, 3070, Some(execute)));
        t.push(span("engine.assemble", 4000, 4020, Some(execute)));
        // Children that outlast a cached parent floor its self time at 0.
        let hit = t.push(span("serve.execute", 5000, 5010, None));
        t.push(span("eq_hashindex.knn", 6000, 6070, Some(hit)));

        assert_eq!(t.self_ns(), [150, 30, 30, 70, 20, 0, 70]);
        assert_eq!(t.durations_ns("eq_hashindex.knn", 0), [70, 70]);
        assert_eq!(t.durations_ns("eq_hashindex.knn", hit), [70]);
        assert_eq!(t.durations_ns("absent", 0), Vec::<u64>::new());
    }

    #[test]
    fn span_times_the_call_and_returns_its_result() {
        let mut t = Tracer::new();
        let (value, root) = t.span("outer", 1, None, || 41 + 1);
        let (_, child) = t.span("inner", 1, Some(root), || ());
        assert_eq!((value, root, child), (42, 0, 1));
        let spans = t.spans();
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert!(spans[1].start_ns >= spans[0].end_ns);
        assert_eq!(spans[1].parent, Some(root));
    }

    #[test]
    fn trace_file_has_one_parsable_object_per_span() {
        let mut t = Tracer::new();
        let root = t.push(span("remote", 5, 9, None));
        t.push(span("serve.execute", 10, 12, Some(root)));
        let dir = std::env::temp_dir().join(format!("e2e_trace_test_{}", std::process::id()));
        let path = dir.join("t.trace.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<_> = text.lines().map(|l| crate::metrics::json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].keys(), ["id", "name", "start_ns", "end_ns", "request_id", "parent"]);
        assert_eq!(lines[0].get("parent"), Some(&crate::metrics::json::Json::Null));
        assert_eq!(lines[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(lines[1].get("name").and_then(|n| n.as_str()), Some("serve.execute"));
    }
}

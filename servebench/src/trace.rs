//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is opened before a call and closed after it; spans of one
//! request share its id, and a child names the span that caused it.
//! Nothing inside the program is instrumented: the spans time the
//! public functions the benchmark calls. They stay in memory until the
//! run ends and are then written out as one JSON file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::Summary;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// `0` while the span is open.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub request: u64,
}

/// Handle to an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No parent: a root span.
    pub const NONE: SpanId = SpanId(None);
}

/// The span store. When disabled, every call is a no-op, so one code
/// path serves the untraced and the traced runs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: parent.0,
            request,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Closes a span now.
    pub fn close(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span store poisoned")[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, taken out of the store.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// A span's own time: its duration minus the part of it that its
/// children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time per span name, µs: the record the traced run reports.
pub fn self_time_summary(spans: &[Span]) -> BTreeMap<&'static str, Summary> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        by_name
            .entry(s.name)
            .or_default()
            .push(self_ns as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, v)| (name, Summary::of(&v)))
        .collect()
}

/// The spans as a JSON array, one object per line.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{sep}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out.push(']');
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
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("request", 0, 100, None),
            span("encode", 10, 30, Some(0)),
            // Overlaps the previous child by 10 ns.
            span("write", 20, 50, Some(0)),
            span("decode", 60, 70, Some(0)),
            // A grandchild counts against its parent only.
            span("check", 62, 66, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30, 6, 4]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 25]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer.span("x", 1, SpanId::NONE, || 3);
        assert_eq!(v, 3);
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let tracer = Tracer::new(true);
        let root = tracer.open("request", 4, SpanId::NONE);
        tracer.span("child", 4, root, || ());
        tracer.close(root);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.request == 4));
        let summary = self_time_summary(&spans);
        assert_eq!(summary["child"].n, 1);
    }
}

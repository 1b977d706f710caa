//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions: name, start, end, parent and request id.
//! They stay in memory until the run ends, are written out as JSON
//! lines, and are reduced to per-layer self times (a span's duration
//! minus the part of it that its child spans cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// A span recorder. Threads record into their own tracer over a shared
/// epoch; [`Tracer::absorb`] merges them when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Record an already-timed span.
    pub fn push_closed(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start: ns(start), end: ns(end), parent, request });
        self.spans.len() - 1
    }

    /// Run `f` inside a leaf span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Move `other`'s spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span with its self time as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent. Children that run
/// concurrently (overlapping intervals) are covered once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, s.end), b.clamp(s.start, s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (total self time in ns, span count).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += t;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name: "x", start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        // Parent 0..100 with children 10..30 and 50..60; a grandchild
        // 12..20 under the first child.
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two concurrent children 10..40 and 20..50, one nested in the
        // other at 25..35: the parent covers 10..50 once.
        let spans = vec![
            span(0, 60, None),
            span(10, 40, Some(0)),
            span(20, 50, Some(0)),
            span(25, 35, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(10, 20, None), span(5, 15, Some(0)), span(18, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn absorb_rebases_parents_and_sums_by_name() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin("root", None, 1);
        a.end(root);
        let mut b = Tracer::new(epoch);
        let r = b.begin("root", None, 2);
        let c = b.begin("leaf", Some(r), 2);
        b.end(c);
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let by_name = self_time_by_name(a.spans());
        assert_eq!(by_name["root"].1, 2);
        assert_eq!(by_name["leaf"].1, 1);
    }
}

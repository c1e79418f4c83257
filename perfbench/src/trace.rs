//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer of the workspace in a span
//! named `<layer>.<call>` (for example `probe.window`); the harness wraps
//! each op in an `op` span, so layer spans are its children. Spans stay
//! in memory while the workload runs and are written out once, at exit.
//! A disabled tracer never reads the clock.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to; `None` outside ops (set-up).
    pub op: Option<usize>,
    /// Units of work the span covers (model steps, for example).
    pub work: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span handle returned by [`Tracer::begin`].
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Marks the op subsequent spans belong to (`None` for set-up).
    pub fn set_op(&mut self, op: Option<usize>) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, work: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            op: self.op,
            work,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            self.spans[id].end = self.now();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, work: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, work);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `id parent op name start_ns end_ns work`, with `-` for none.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\twork\n");
        let opt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                opt(s.op),
                s.name,
                s.start,
                s.end,
                s.work
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus its direct children's.
/// The tracer closes spans innermost first, so a span's children lie
/// inside it and never overlap one another.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: Some(0),
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a.x", 10, 40, Some(0)),
            // A grandchild counts against its parent, not against the op.
            span("a.y", 15, 25, Some(1)),
            span("b.z", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_times_of_nested_tracer_spans_add_up_to_the_op() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        let op = tr.begin("op", 0);
        let outer = tr.begin("a.outer", 0);
        tr.time("a.inner", 0, || std::hint::black_box(0..1000).sum::<u64>());
        tr.end(outer);
        tr.time("b.leaf", 0, || std::hint::black_box(0..1000).sum::<u64>());
        tr.end(op);
        let spans = tr.spans();
        let own = self_times(spans);
        assert_eq!(
            own[0],
            spans[0].duration() - spans[1].duration() - spans[3].duration()
        );
        assert_eq!(own[1], spans[1].duration() - spans[2].duration());
        assert_eq!(own[2], spans[2].duration());
        assert_eq!(own[3], spans[3].duration());
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration());
    }

    #[test]
    fn a_leaf_span_is_all_self_time() {
        let spans = vec![span("op", 5, 9, None)];
        assert_eq!(self_times(&spans), vec![4]);
        assert_eq!(spans[0].layer(), "op");
        assert_eq!(span("probe.window", 0, 1, None).layer(), "probe");
    }

    #[test]
    fn tracer_nests_spans_and_stays_silent_when_disabled() {
        let mut tr = Tracer::new();
        tr.time("a.x", 1, || ());
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        tr.set_op(Some(7));
        let op = tr.begin("op", 0);
        let v = tr.time("a.x", 64, || 3);
        tr.end(op);
        assert_eq!(v, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7));
        assert_eq!(spans[1].work, 64);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}

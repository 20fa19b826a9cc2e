//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end and parent, and for a serve
//! request the request id every span of that request shares. Spans stay
//! in memory while the traced run executes and are written out once, at
//! the end. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The serve request this span belongs to.
    pub req: Option<u64>,
    /// Calls the span covers: one, or many for a loop timed as a whole.
    pub ops: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Records the spans of one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new(), open: Vec::new() }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.at(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, req: None, ops: 1 });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.at(Instant::now());
        out
    }

    /// Records a call the caller timed, as a child of the innermost open
    /// span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: Option<u64>,
        ops: u64,
    ) {
        let (start, end) = (self.at(start), self.at(end));
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end, parent, req, ops });
    }

    /// Moves another thread's spans, timed against the same epoch, under
    /// the innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        assert_eq!(self.epoch, other.epoch, "spans from another epoch");
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line, after a `#` header.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let dash = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
        let mut out = format!("# {header}\nid\tname\tstart_ns\tend_ns\tparent\treq\tops\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start,
                s.end,
                dash(s.parent.map(|p| p as u64)),
                dash(s.req),
                s.ops
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to it, so children that overlap
/// (parallel clients) are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Durations (ns) of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur() as f64).collect()
}

/// Self times (ns) of the spans named `name`.
pub fn self_of(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t as f64)
        .collect()
}

/// Calls covered by the spans named `name`.
pub fn ops(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.ops).sum()
}

/// Index of the first span named `name`.
pub fn find(spans: &[Span], name: &str) -> Option<usize> {
    spans.iter().position(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, req: None, ops: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 90, 120, Some(0)),
            span("leaf", 12, 14, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![60, 18, 20, 30, 2]);
        assert_eq!(self_of(&spans, &selfs, "a"), vec![18.0]);
        assert_eq!(durations(&spans, "c"), vec![30.0]);
        assert_eq!(find(&spans, "leaf"), Some(4));
    }

    #[test]
    fn calls_aggregate_over_spans_of_one_name() {
        let spans = [
            Span { ops: 4, ..span("x", 0, 100, None) },
            Span { ops: 6, ..span("x", 100, 150, None) },
            span("y", 0, 1, None),
        ];
        assert_eq!(ops(&spans, "x"), 10);
        let per_call = durations(&spans, "x").iter().sum::<f64>() / ops(&spans, "x") as f64;
        assert_eq!(per_call, 15.0);
    }

    #[test]
    fn nested_and_absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            let mut worker = Tracer::new(epoch);
            worker.span("thread", |w| w.span("call", |_| ()));
            t.absorb(worker);
        });
        let s = t.spans();
        let tree: Vec<_> = s.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            tree,
            vec![("outer", None), ("inner", Some(0)), ("thread", Some(0)), ("call", Some(2))]
        );
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }
}

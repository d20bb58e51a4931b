//! In-memory span recording for the traced run. Spans are recorded by the
//! benchmark around each public call it makes into a layer; nothing is
//! written until the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded interval, as offsets from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `core.taskgen`.
    pub name: String,
    /// The workspace layer that did the work (`accel`, `core`, ...), or
    /// `harness` for the benchmark's own time.
    pub layer: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
}

/// The span store for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose offsets count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new() }
    }

    /// Offset of `at` from the origin.
    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.origin)
    }

    /// Record a finished interval; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.offset(start), self.offset(end));
        self.push(Span { name: name.into(), layer, start, end, parent })
    }

    /// Record a span given as offsets.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a root span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, layer: &'static str) -> usize {
        let now = Instant::now();
        self.record(name, layer, None, now, now)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.offset(Instant::now());
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, layer, Some(parent), t0, t1);
        (out, t1 - t0)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration of the root spans.
    pub fn root_time(&self) -> Duration {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end - s.start).sum()
    }

    /// Total duration and count of the spans of each name.
    pub fn busy_by_name(&self) -> BTreeMap<&str, (Duration, usize)> {
        let mut out: BTreeMap<&str, (Duration, usize)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name.as_str()).or_default();
            e.0 += s.end - s.start;
            e.1 += 1;
        }
        out
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// children cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            *out.entry(s.layer).or_insert(Duration::ZERO) += self_time((s.start, s.end), kids);
        }
        out
    }
}

/// A span's duration minus the union of its children's intervals clipped
/// to it. Children may overlap one another (an admission call and the
/// queue wait it starts, say); overlapping time is subtracted once.
pub fn self_time(span: (Duration, Duration), children: &[(Duration, Duration)]) -> Duration {
    let (lo, hi) = span;
    let mut clipped: Vec<(Duration, Duration)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    hi.saturating_sub(lo).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..50 overlap on 30..40, and
        // 90..120 runs past the parent's end.
        let kids = [(ms(10), ms(40)), (ms(30), ms(50)), (ms(90), ms(120))];
        assert_eq!(self_time((ms(0), ms(100)), &kids), ms(50));
        // Nested and identical children.
        let kids = [(ms(10), ms(60)), (ms(20), ms(30)), (ms(10), ms(60))];
        assert_eq!(self_time((ms(0), ms(100)), &kids), ms(50));
        assert_eq!(self_time((ms(0), ms(100)), &[]), ms(100));
        assert_eq!(self_time((ms(0), ms(100)), &[(ms(0), ms(100))]), Duration::ZERO);
        assert_eq!(self_time((ms(50), ms(60)), &[(ms(0), ms(10))]), ms(10));
    }

    #[test]
    fn tracer_sums_self_time_by_layer() {
        let mut t = Tracer::new(Instant::now());
        let root = t.push(Span {
            name: "op".into(),
            layer: "harness",
            start: ms(0),
            end: ms(100),
            parent: None,
        });
        for (name, layer, s, e) in [
            ("serve.admit", "serve", 0, 10),
            ("serve.queue", "serve", 5, 40),
            ("exec", "accel", 40, 90),
        ] {
            t.push(Span { name: name.into(), layer, start: ms(s), end: ms(e), parent: Some(root) });
        }
        let by = t.self_time_by_layer();
        assert_eq!(by["harness"], ms(10));
        assert_eq!(by["serve"], ms(45));
        assert_eq!(by["accel"], ms(50));
        assert_eq!(t.root_time(), ms(100));
        assert_eq!(t.len(), 4);
    }
}

//! In-memory span recording for the traced run.
//!
//! Spans come from the benchmark's own code, placed around each call into
//! a layer: name, start, end, parent and request id. They stay in memory
//! until the run ends and are then written out as TSV. A span's *self
//! time* is its duration minus the part of its interval that its children
//! cover; children may overlap each other (work fanned out to threads),
//! so the covered part is the measure of the union of their intervals,
//! clipped to the parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// Request (or pass / round) the span belongs to.
    pub req: u64,
}

/// Per-thread span recorder. Every span is also the timer of the call it
/// wraps: [`Tracer::end`] and [`Tracer::timed`] return the span's
/// duration whether or not the tracer records, so the figure a run
/// reports and the span a traced run writes are one measurement. A
/// disabled tracer records nothing and keeps the same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested under the innermost open one; returns its start
    /// for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, req: u64) -> u64 {
        let start = self.now();
        if self.enabled {
            self.record(name, req, start, start);
            self.open.push(self.spans.len() - 1);
        }
        start
    }

    /// Close the innermost open span, begun at `start`; returns its
    /// duration in seconds.
    pub fn end(&mut self, start: u64) -> f64 {
        let now = self.now();
        if self.enabled {
            let i = self.open.pop().expect("span end without begin");
            self.spans[i].end = now;
        }
        (now - start) as f64 * 1e-9
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    pub fn timed<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.begin(name, req);
        let r = f();
        (r, self.end(start))
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.timed(name, req, f).0
    }

    /// Record a finished span `[start, end)` (timed by the caller with
    /// [`Tracer::now`]) under the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: u64, end: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: self.open.last().copied(),
                req,
            });
        }
    }

    /// Move another thread's spans in under the innermost open span of
    /// this one (both tracers share an epoch).
    pub fn adopt(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to it.
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
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: (count, total ns, self ns).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    out
}

/// Summed duration of the spans named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .sum::<u64>() as f64
        * 1e-9
}

/// Write spans as TSV: index, name, start, end, parent, request, self ns.
pub fn write_tsv(spans: &[Span], w: &mut impl Write) -> std::io::Result<()> {
    writeln!(w, "idx\tname\tstart_ns\tend_ns\tparent\treq\tself_ns")?;
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
            s.name, s.start, s.end, s.req
        )?;
    }
    Ok(())
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
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // Two workers fanned out at once: [10,60) ∪ [40,90) covers 80 ns.
        let spans = vec![
            span("region", 0, 100, None),
            span("worker", 10, 60, Some(0)),
            span("worker", 40, 90, Some(0)),
            span("nested", 45, 55, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 40, 10]);
        let t = totals(&spans);
        assert_eq!(t["worker"], (2, 100, 90));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("parent", 10, 50, None),
            span("child", 0, 20, Some(0)),
            span("child", 15, 30, Some(0)),
            span("child", 45, 80, Some(0)),
        ];
        // Covered: [10,30) + [45,50) = 25.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn nested_spans_and_adoption_keep_parents() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let outer = t.begin("outer", 1);
        t.span("inner", 1, || ());
        let mut worker = Tracer::new(true, epoch);
        worker.span("remote", 1, || ());
        t.adopt(worker);
        let (a, b) = (t.now(), t.now());
        t.record("recorded", 2, a, b);
        let secs = t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.end >= x.start));
        // The returned duration is the span's own.
        assert_eq!(secs, (s[0].end - s[0].start) as f64 * 1e-9);
        assert_eq!(total_s(s, "outer"), secs);
        let mut out = Vec::new();
        write_tsv(s, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 5);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 0, || 7), 7);
        let start = t.begin("y", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.end(start) >= 0.002);
        t.record("z", 0, 0, 1);
        assert!(t.spans().is_empty());
    }
}

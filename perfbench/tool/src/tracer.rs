//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end, its parent and a group (one
//! benchmark program or one request). Spans stay in memory until the run
//! ends. A layer's self time is the time its spans cover minus the time
//! their child spans cover; the root span's self time is the explicit
//! untraced remainder, so self times sum to the traced wall time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Name of the root span.
pub const ROOT: &str = "run";

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`profile`, `layout.inline`, ...).
    pub name: &'static str,
    /// Start.
    pub start: u64,
    /// End (`u64::MAX` while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Benchmark program or request the span belongs to.
    pub group: u64,
}

/// A span recorder; disabled, it records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
    counters: BTreeMap<&'static str, u64>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the group of spans opened from now on.
    pub fn group(&mut self, group: u64) {
        self.group = group;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let i = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: u64::MAX,
            parent: self.open.last().copied(),
            group: self.group,
        });
        self.open.push(i);
        SpanId(Some(i))
    }

    /// Closes `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order.
    pub fn close(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(i), "span closed out of order");
        self.spans[i].end = self.now();
    }

    /// Adds `n` to a counter (counted whether or not spans are on).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Counter totals.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as a tab-separated line: index, name, group,
    /// parent (`-` for none), start and end nanoseconds.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tgroup\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.group, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span named `name` on a shared tracer.
pub fn span<R>(tracer: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = tracer.borrow_mut().open(name);
    let r = f();
    tracer.borrow_mut().close(id);
    r
}

/// Per-layer self times of a finished trace.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SelfTimes {
    /// Nanoseconds of self time and span count per layer name; the root
    /// span's self time is listed under [`ROOT`].
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Duration of the root span.
    pub wall: u64,
}

/// Checks that spans nest (every child inside its parent, siblings
/// disjoint, one closed root) and computes self times. Self times of all
/// names, the root's remainder included, sum to the root's duration.
///
/// # Errors
///
/// A description of the first violation.
pub fn self_times(spans: &[Span]) -> Result<SelfTimes, String> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut last_child_end = vec![0u64; spans.len()];
    let mut roots = 0;
    for (i, s) in spans.iter().enumerate() {
        if s.end == u64::MAX || s.end < s.start {
            return Err(format!("span {i} ({}) is not closed", s.name));
        }
        match s.parent {
            None => roots += 1,
            Some(p) => {
                let parent = &spans[p];
                if p >= i || s.start < parent.start || s.end > parent.end {
                    return Err(format!("span {i} ({}) escapes its parent {p}", s.name));
                }
                if s.start < last_child_end[p] {
                    return Err(format!("span {i} ({}) overlaps a sibling", s.name));
                }
                last_child_end[p] = s.end;
                child_ns[p] += s.end - s.start;
            }
        }
    }
    if roots != 1 || spans[0].parent.is_some() || spans[0].name != ROOT {
        return Err(format!(
            "expected one root span `{ROOT}` first, found {roots}"
        ));
    }
    let mut out = SelfTimes {
        wall: spans[0].end - spans[0].start,
        ..SelfTimes::default()
    };
    for (i, s) in spans.iter().enumerate() {
        let e = out.by_name.entry(s.name).or_insert((0, 0));
        e.0 += s.end - s.start - child_ns[i];
        e.1 += 1;
    }
    let total: u64 = out.by_name.values().map(|v| v.0).sum();
    if total != out.wall {
        return Err(format!(
            "self times sum to {total} ns, wall is {}",
            out.wall
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_wall() {
        let spans = vec![
            s(ROOT, 0, 100, None),
            s("layout.inline", 10, 60, Some(0)),
            s("profile", 15, 35, Some(1)),
            s("profile", 40, 50, Some(1)),
            s("profile", 70, 90, Some(0)),
        ];
        let t = self_times(&spans).unwrap();
        assert_eq!(t.wall, 100);
        assert_eq!(t.by_name["layout.inline"], (20, 1));
        assert_eq!(t.by_name["profile"], (50, 3));
        assert_eq!(t.by_name[ROOT], (30, 1));
    }

    #[test]
    fn broken_nesting_is_rejected() {
        let escape = vec![s(ROOT, 0, 10, None), s("a", 5, 11, Some(0))];
        assert!(self_times(&escape).is_err());
        let overlap = vec![
            s(ROOT, 0, 10, None),
            s("a", 1, 5, Some(0)),
            s("b", 4, 6, Some(0)),
        ];
        assert!(self_times(&overlap).is_err());
        let open = vec![s(ROOT, 0, u64::MAX, None)];
        assert!(self_times(&open).is_err());
        let two_roots = vec![s(ROOT, 0, 10, None), s(ROOT, 10, 20, None)];
        assert!(self_times(&two_roots).is_err());
    }

    #[test]
    fn recorded_spans_nest() {
        let tr = RefCell::new(Tracer::new(true));
        span(&tr, ROOT, || {
            span(&tr, "a", || span(&tr, "b", || ()));
            span(&tr, "a", || ());
        });
        let tr = tr.into_inner();
        assert_eq!(tr.spans().len(), 4);
        assert_eq!(tr.spans()[2].parent, Some(1));
        let t = self_times(tr.spans()).unwrap();
        assert_eq!(t.by_name["a"].1, 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_counts() {
        let tr = RefCell::new(Tracer::new(false));
        span(&tr, ROOT, || tr.borrow_mut().count("x", 3));
        let tr = tr.into_inner();
        assert!(tr.spans().is_empty());
        assert_eq!(tr.counters()["x"], 3);
    }
}

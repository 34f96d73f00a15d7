//! In-memory spans for the traced run, their self times, and Chrome-trace
//! export. Spans are recorded by the benchmark around calls into the
//! workspace's public functions; nothing inside the program is changed.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed interval. Spans of one read pair or job share `id`; `parent`
/// indexes the enclosing span in the same [`Tracer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"seed_query"`.
    pub name: &'static str,
    /// Pair or job the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, `None` at the root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Chrome-trace thread lane the span is drawn on.
    pub lane: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans into memory; nothing is written until [`write_chrome`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// `t` in nanoseconds since the tracer's origin (0 if earlier).
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`end`](Tracer::end).
    pub fn begin(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        lane: u32,
    ) -> usize {
        let now = self.now_ns();
        self.push(name, id, parent, lane, now, now)
    }

    /// Closes span `idx` now.
    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            lane,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, id, parent, 1, start, end);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and
/// children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
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
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(a, s.end_ns);
                covered += b - a;
                reach = reach.max(b);
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// (self time, total time) summed per span name, in nanoseconds, over the
/// spans from index `from` on (earlier spans still count as parents).
pub fn time_by_name(spans: &[Span], from: usize) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)).skip(from) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += own;
        e.1 += s.dur_ns();
    }
    out
}

/// Writes the spans that `keep` selects as Chrome trace-event JSON
/// (complete `"X"` events, microsecond timestamps), viewable in Perfetto or
/// `chrome://tracing`. `args.span` and `args.parent` are indices into
/// `spans`, so links survive the selection.
pub fn write_chrome<W: Write>(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
    mut w: W,
) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\":[")?;
    let mut sep = "\n";
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| keep(s)) {
        let parent = s.parent.map_or(-1, |p| p as i64);
        write!(
            w,
            "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"span\":{},\"parent\":{}}}}}",
            s.name,
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            i,
            parent,
        )?;
        sep = ",\n";
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

//! In-memory span recorder used by the traced runs.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer of the workspace (the program itself is not instrumented). A span
//! has a name, a start and end offset from the recorder's origin, and the
//! span that was open when it started. Spans stay in memory until the run
//! ends, when the traced run writes them out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    /// Request or run the span belongs to; spans of one request share it.
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    group: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, group: u64) -> Tracer {
        Tracer {
            origin,
            group,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`; later spans nest under it until [`end`].
    ///
    /// [`end`]: Tracer::end
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            group: self.group,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured interval as a child of the open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            group: self.group,
            start_ns,
            end_ns,
        });
    }

    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends one tracer's spans to `out`, renumbering ids (and parents) so
/// they stay unique across tracers.
pub fn append(out: &mut Vec<Span>, spans: Vec<Span>) {
    let base = out.len();
    out.extend(spans.into_iter().map(|s| Span {
        id: s.id + base,
        parent: s.parent.map(|p| p + base),
        ..s
    }));
}

/// Total duration per span name, in nanoseconds.
pub fn totals_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.ns();
    }
    out
}

/// Self time of every span named `name`: its duration minus the time its
/// direct children cover (children of one thread never overlap).
pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            s.ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .sum()
}

/// Writes spans as JSON lines (one object per span), creating the parent
/// directory.
pub fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"group\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.group, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

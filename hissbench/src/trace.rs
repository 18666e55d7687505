//! In-memory span recording and self-time arithmetic.
//!
//! Spans are recorded only by the benchmark, around its calls into the
//! program's public functions. Each span has a name (`layer.step`), a
//! start and end in nanoseconds since the recorder was created, the
//! span that caused it and the submission (request) it belongs to.
//! Spans are kept in memory and written out as JSON lines when the run
//! ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the recording (ids start at 1).
    pub id: u32,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// The submission this span belongs to.
    pub req: u32,
    /// `layer.step`, e.g. `store.load`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch (`>= start`).
    pub end: u64,
}

/// A thread-safe span recorder. When disabled it still runs the wrapped
/// calls, so a plain and a traced replay execute the same code.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its id can parent other spans before it closes.
    pub fn open(&self, name: &'static str, req: u32, parent: Option<u32>) -> Open {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            req,
            name,
            start: if self.enabled { self.now() } else { 0 },
        }
    }

    /// Closes a span opened by [`Self::open`].
    pub fn close(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            name: open.name,
            start: open.start,
            end,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        req: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, req, parent);
        let out = f();
        self.close(open);
        out
    }

    /// Every recorded span, in id order.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span buffer poisoned");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
pub struct Open {
    /// The span's id (0 when the recorder is disabled).
    pub id: u32,
    parent: Option<u32>,
    req: u32,
    name: &'static str,
    start: u64,
}

/// Total length of the union of `intervals`, each clipped to
/// `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in ns, indexed like `spans`: its duration
/// minus the part of its interval that its children cover. Children
/// running in parallel may overlap each other; the overlap is counted
/// once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.end - s.start) - covered(kids, s.start, s.end)
        })
        .collect()
}

/// Sum of self times per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 / 1e9;
    }
    out
}

/// Writes spans as JSON lines: `{"id","parent","req","name","start_ns","end_ns"}`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.req, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn nested_spans_subtract_only_their_direct_children() {
        // root [0,100) > mid [10,60) > leaf [20,30)
        let spans = [
            span(1, None, "root", 0, 100),
            span(2, Some(1), "mid", 10, 60),
            span(3, Some(2), "leaf", 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        // Self times of a strictly nested tree add up to the root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_of_one_parent_are_counted_once() {
        // Two workers run children in parallel inside one parent:
        // [10,50) and [30,70) cover [10,70) = 60 of the parent's 100.
        let spans = [
            span(1, None, "chunk", 0, 100),
            span(2, Some(1), "cell", 10, 50),
            span(3, Some(1), "cell", 30, 70),
            span(4, Some(1), "cell", 80, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 40, 10]);
        let by_name = self_seconds_by_name(&spans);
        assert_eq!(by_name["chunk"], 30e-9);
        assert_eq!(by_name["cell"], 90e-9);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that outlives its parent (clock skew across threads)
        // can at most cancel the parent's self time, never underflow it.
        let spans = [span(1, None, "p", 10, 20), span(2, Some(1), "c", 5, 25)];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn recorder_links_parents_and_keeps_every_span() {
        let rec = Recorder::new(true);
        let root = rec.open("root", 7, None);
        let v = rec.span("child", 7, Some(root.id), || 41 + 1);
        rec.close(root);
        assert_eq!(v, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.req == 7 && s.end >= s.start));

        let off = Recorder::new(false);
        assert_eq!(off.span("x", 0, None, || 5), 5);
        assert!(off.into_spans().is_empty());
    }
}

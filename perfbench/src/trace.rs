//! The benchmark's own tracing: spans recorded around each call the
//! benchmark makes into a layer, kept in memory, dumped as JSONL at the
//! end, and folded into per-layer self times.
//!
//! A span has a name, start and end (nanoseconds since the recorder was
//! made), the span that caused it, and the request id its request's spans
//! share (0 outside any request). The parent is the innermost span open on
//! the calling thread; on a thread with none open (an executor worker) it
//! is the recorder's current root, the run span that spawned the worker.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
}

/// In-memory span store shared by every thread of one traced run.
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
    root: AtomicU64,
    closed: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records itself when dropped.
pub struct Guard<'a> {
    spans: &'a Spans,
    span: Span,
    root: bool,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            root: AtomicU64::new(0),
            closed: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the calling thread's innermost open span.
    pub fn open(&self, name: &'static str, request: u64) -> Guard<'_> {
        self.open_as(name, request, false)
    }

    /// Opens a span that also becomes the parent of spans opened on threads
    /// with no span of their own (the executor's workers).
    pub fn open_root(&self, name: &'static str) -> Guard<'_> {
        self.open_as(name, 0, true)
    }

    fn open_as(&self, name: &'static str, request: u64, root: bool) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open
                .last()
                .copied()
                .unwrap_or_else(|| self.root.load(Ordering::Relaxed));
            open.push(id);
            parent
        });
        if root {
            self.root.store(id, Ordering::Relaxed);
        }
        Guard {
            spans: self,
            span: Span {
                id,
                parent,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                request,
            },
            root,
        }
    }

    /// Records an already-finished interval as a span under the current
    /// root (for intervals that start and end on different threads' terms,
    /// such as a job from send to reply).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.root.load(Ordering::Relaxed),
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            request,
        };
        self.closed.lock().expect("span store").push(span);
    }

    /// Every closed span, in closing order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.closed.lock().expect("span store"))
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.spans.now_ns();
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        if self.root {
            self.spans.root.store(self.span.parent, Ordering::Relaxed);
        }
        self.spans
            .closed
            .lock()
            .expect("span store")
            .push(self.span.clone());
    }
}

/// Opens a span when tracing is on; a no-op otherwise.
pub fn span<'a>(spans: Option<&'a Spans>, name: &'static str, request: u64) -> Option<Guard<'a>> {
    spans.map(|s| s.open(name, request))
}

/// Per-name totals of a span fold.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fold {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Folds spans into per-name totals. A span's self time is its duration
/// minus the part of its interval its children cover; children running
/// in parallel on several workers are merged before subtracting.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Fold> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Fold> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
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
            covered
        });
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += dur;
        entry.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// One span as a JSONL line.
pub fn to_jsonl(span: &Span) -> String {
    format!(
        "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
        span.id, span.parent, span.name, span.start_ns, span.end_ns, span.request
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 { "outer" } else { "inner" },
            start_ns,
            end_ns,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two parallel children cover [10, 60) of a [0, 100) parent.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 20, 60)];
        let folded = fold(&spans);
        assert_eq!(folded["outer"].self_ns, 50);
        assert_eq!(folded["inner"].total_ns, 80);
        assert_eq!(folded["inner"].self_ns, 80);
    }

    #[test]
    fn worker_threads_parent_to_the_root_span() {
        let spans = Spans::new();
        {
            let _run = spans.open_root("run");
            std::thread::scope(|s| {
                s.spawn(|| drop(spans.open("call", 7)));
            });
        }
        let taken = spans.take();
        let run = taken.iter().find(|s| s.name == "run").unwrap();
        let call = taken.iter().find(|s| s.name == "call").unwrap();
        assert_eq!(call.parent, run.id);
        assert_eq!(call.request, 7);
    }
}

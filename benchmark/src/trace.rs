//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it;
//! request spans also carry a request id and kind. Spans stay in memory
//! and are written out when the run ends. Self time is a span's
//! duration minus the part of it its children cover, and the spans
//! the result waited on (the blocking path) add up to the root span.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span ids, unique across every tracer of the process.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// One recorded span. Times are nanoseconds since the trace began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.step`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
    /// Recording thread (0 is the main thread).
    pub thread: u32,
    /// Request id and kind, for serve requests.
    pub request: Option<(u64, &'static str)>,
}

/// Records spans for one thread. A disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    open: Vec<Span>,
    done: Vec<Span>,
    /// Parent of this thread's outermost spans (for forked tracers).
    root_parent: Option<u64>,
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer for the main thread.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            thread: 0,
            open: Vec::new(),
            done: Vec::new(),
            root_parent: None,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (open spans are unaffected).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// A tracer for another thread, sharing the epoch, whose outermost
    /// spans are children of the span open here now.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            thread,
            open: Vec::new(),
            done: Vec::new(),
            root_parent: self.open.last().map(|s| s.id).or(self.root_parent),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_request(name, None)
    }

    /// Opens a request span carrying its id and kind.
    pub fn begin_request(
        &mut self,
        name: &'static str,
        request: Option<(u64, &'static str)>,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().map(|s| s.id).or(self.root_parent);
        let start = self.now();
        self.open.push(Span {
            id,
            parent,
            name,
            start,
            end: start,
            thread: self.thread,
            request,
        });
        Open(Some(self.open.len() - 1))
    }

    /// Closes `span`; spans must close innermost first.
    pub fn end(&mut self, span: Open) {
        let Some(depth) = span.0 else { return };
        debug_assert_eq!(depth + 1, self.open.len(), "spans close innermost first");
        let end = self.now();
        if let Some(mut s) = self.open.pop() {
            s.end = end;
            self.done.push(s);
        }
    }

    /// Takes over the finished spans of a forked tracer.
    pub fn adopt(&mut self, other: Tracer) {
        self.done.extend(other.done);
    }

    /// The finished spans, in start order.
    pub fn finish(mut self) -> Vec<Span> {
        self.done.sort_by_key(|s| (s.start, s.id));
        self.done
    }
}

/// Per-layer totals along the blocking path below `root`.
#[derive(Clone, Debug, PartialEq)]
pub struct Breakdown {
    /// Root span duration, ns.
    pub total: u64,
    /// Self time by span name (the root's own under its name), ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Time in the root itself, outside every named child, ns.
    pub residual: u64,
}

/// Walks the blocking path from `root`: all children on one thread;
/// where children run on several threads, only the thread whose last
/// child ends latest (the one the parent waited for).
pub fn breakdown(spans: &[Span], root: u64) -> Option<Breakdown> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let root_span = by_id.get(&root)?;
    let mut out = Breakdown {
        total: root_span.end - root_span.start,
        self_ns: BTreeMap::new(),
        residual: 0,
    };
    let mut stack = vec![*root_span];
    while let Some(s) = stack.pop() {
        let kids = blocking_children(children.get(&s.id).map_or(&[][..], Vec::as_slice));
        let own = (s.end - s.start) - covered(s, &kids);
        if s.id == root {
            out.residual = own;
        }
        *out.self_ns.entry(s.name).or_default() += own;
        stack.extend(kids);
    }
    Some(out)
}

fn blocking_children<'a>(kids: &[&'a Span]) -> Vec<&'a Span> {
    let mut last_end: BTreeMap<u32, u64> = BTreeMap::new();
    for k in kids {
        let e = last_end.entry(k.thread).or_default();
        *e = (*e).max(k.end);
    }
    let Some((&thread, _)) = last_end
        .iter()
        .max_by_key(|(&t, &e)| (e, std::cmp::Reverse(t)))
    else {
        return Vec::new();
    };
    kids.iter()
        .copied()
        .filter(|k| k.thread == thread)
        .collect()
}

/// Length of the union of `kids` clipped to `parent`.
fn covered(parent: &Span, kids: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| (k.start.max(parent.start), k.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Spans as a JSON array (for the spans file).
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                let mut o = vec![
                    ("id".to_string(), Json::from(s.id)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, Json::from),
                    ),
                    ("name".to_string(), Json::str(s.name)),
                    ("start_ns".to_string(), Json::from(s.start)),
                    ("end_ns".to_string(), Json::from(s.end)),
                    ("thread".to_string(), Json::from(u64::from(s.thread))),
                ];
                if let Some((id, kind)) = s.request {
                    o.push(("request".to_string(), Json::from(id)));
                    o.push(("kind".to_string(), Json::str(kind)));
                }
                Json::Obj(o)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: u64,
        end: u64,
        thread: u32,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            thread,
            request: None,
        }
    }

    #[test]
    fn self_times_on_the_blocking_path_add_up_to_the_root() {
        let spans = vec![
            span(0, None, "root", 0, 100, 0),
            span(1, Some(0), "load", 5, 25, 0),
            span(2, Some(0), "loop", 30, 90, 0),
            // Two client threads under `loop`; thread 2 ends last.
            span(3, Some(2), "client", 30, 80, 1),
            span(4, Some(2), "client", 31, 88, 2),
            span(5, Some(4), "request", 35, 60, 2),
            span(6, Some(4), "request", 61, 85, 2),
        ];
        let b = breakdown(&spans, 0).unwrap();
        assert_eq!(b.total, 100);
        assert_eq!(b.residual, 100 - 20 - 60);
        assert_eq!(b.self_ns["loop"], 60 - 57);
        assert_eq!(b.self_ns["client"], 57 - 49);
        assert_eq!(b.self_ns["request"], 49);
        assert_eq!(b.self_ns.values().sum::<u64>(), b.total);
    }

    #[test]
    fn tracer_nests_and_forks() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let mut child = t.fork(1);
        let r = child.begin_request("client.request", Some((7, "ppr")));
        child.end(r);
        t.end(outer);
        t.adopt(child);
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let req = spans.iter().find(|s| s.name == "client.request").unwrap();
        assert_eq!(req.parent, Some(outer.id));
        assert_eq!(req.request, Some((7, "ppr")));
        let mut off = Tracer::new(false);
        let s = off.begin("x");
        off.end(s);
        assert!(off.finish().is_empty());
    }
}

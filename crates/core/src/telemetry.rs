//! Workspace-wide lightweight telemetry: span timers with a
//! Chrome-trace exporter, and the one sanctioned wall-clock handle.
//!
//! The paper's whole argument is quantitative — PCPM wins because the
//! destID bin stream is DRAM-bandwidth-bound — so the reproduction must
//! be able to measure that from *inside* a run. Per-run counts (destID
//! bytes scanned, phase wall-clock, batched passes, repaired
//! partitions, pool jobs) have one owner: the engine that did the work,
//! through [`ExecutionReport`](crate::ExecutionReport) and the
//! [`RepairStats`](crate::update::RepairStats) every `Engine::update`
//! returns. This module adds the two things a report cannot carry:
//!
//! 1. **Spans** ([`span`]): RAII wall-clock timers. While the calling
//!    thread collects a trace ([`start_tracing`]), every span that
//!    thread opens is appended to its own thread-local buffer;
//!    [`stop_tracing`] hands the buffer back. Spans opened on any other
//!    thread are not part of that trace, so concurrent runs (tests,
//!    serve workers) never leak into each other's traces. Every engine
//!    span is opened on the thread that calls the engine: the rayon
//!    shim's `install` runs its closure on the caller, and pool workers
//!    open no spans. [`write_chrome_trace`] serializes a trace as
//!    Chrome-trace-format JSON (`chrome://tracing` / Perfetto); the
//!    `pcpm --trace-out FILE` flag is the CLI surface.
//! 2. **Stopwatches** ([`stopwatch`]): see *Wall-clock discipline*.
//!
//! Both are `std`-only and safe (`pcpm-core` forbids `unsafe`); a span
//! opened while its thread is not tracing is one thread-local read and
//! allocates nothing.
//!
//! # Span taxonomy
//!
//! Every span name is a `'static` literal, opened at exactly one call
//! site, and registered in [`SPAN_NAMES`] — `pcpm-lint`'s
//! `telemetry-registry` rule enforces all three, so a trace viewer and
//! this table cannot drift apart.
//!
//! | span | covers | opened by |
//! | --- | --- | --- |
//! | `prepare` | PNG build + bin construction | `Engine::prepare` |
//! | `repair` | incremental PNG/bin repair after an update batch (arg: touched partitions) | `Engine::update` |
//! | `scatter` | the PCPM scatter phase of one step (or of a one-query batch) | `Engine::step`, `Engine::step_many` |
//! | `gather` | the PCPM gather phase of one step (or of a one-query batch) | `Engine::step`, `Engine::step_many` |
//! | `scatter_many` | node-major scatter across a batch of two or more queries | `Engine::step_many` |
//! | `gather_many` | node-major gather across a batch of two or more queries | `Engine::step_many` |
//! | `step` | one backend-dispatched SpMV step (arg: step index) | `DynBackend::step` |
//! | `step_many` | one backend-dispatched SpMM pass (arg: batch width) | `DynBackend::step_many` |
//! | `update` | one mutation batch applied through the backend | `DynBackend::update` |
//! | `replay_batch` | one replayed update batch + its convergence loop (arg: batch index) | `stream::replay` |
//!
//! # Wall-clock discipline
//!
//! Kernel crates are forbidden (by the `determinism` lint rule) from
//! calling [`Instant::now`] directly: this module is the one sanctioned
//! owner of wall-clock access, and kernels time themselves through the
//! opaque [`stopwatch`] handle instead. That keeps every clock read in
//! one auditable place and makes "a kernel result depends on the
//! clock" impossible to write without tripping the lint.
//!
//! # Example
//!
//! ```
//! use pcpm_core::telemetry;
//!
//! telemetry::start_tracing();
//! {
//!     let _step = telemetry::span_n("step", 0);
//! }
//! let events = telemetry::stop_tracing();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].arg, Some(0));
//! ```

use std::cell::RefCell;
use std::io::Write;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One completed span: a named wall-clock interval on the tracing
/// thread, Chrome-trace "complete event" shaped (`ph: "X"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (`prepare`, `step`, `scatter`, `gather`, …). Static
    /// and identifier-like by construction, so serialization never
    /// needs escaping.
    pub name: &'static str,
    /// Optional numeric argument (step index, batch index, …),
    /// serialized as `args: {"n": …}`.
    pub arg: Option<u64>,
    /// Start, microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

thread_local! {
    /// This thread's trace: `Some` between [`start_tracing`] and
    /// [`stop_tracing`] on this thread.
    static TRACE: RefCell<Option<Vec<TraceEvent>>> = const { RefCell::new(None) };
}

/// The fixed time origin all span timestamps are relative to
/// (initialized on first use).
fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    trace_epoch().elapsed().as_micros() as u64
}

/// Starts collecting the spans this thread opens (an earlier,
/// unstopped collection on this thread is discarded).
pub fn start_tracing() {
    // Touch the epoch before enabling so every span shares one origin.
    let _ = trace_epoch();
    TRACE.with(|t| *t.borrow_mut() = Some(Vec::new()));
}

/// Stops this thread's collection and returns every span it recorded
/// since [`start_tracing`] (empty when this thread was not tracing).
pub fn stop_tracing() -> Vec<TraceEvent> {
    TRACE.with(|t| t.borrow_mut().take()).unwrap_or_default()
}

/// RAII span timer: records a [`TraceEvent`] covering its lifetime when
/// dropped, if its thread was tracing when it was created (and still is
/// when it is dropped).
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    arg: Option<u64>,
    /// `Some(start)` iff this thread was tracing at construction.
    start_us: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start_us {
            let end = now_us();
            let event = TraceEvent {
                name: self.name,
                arg: self.arg,
                ts_us: start,
                dur_us: end.saturating_sub(start),
            };
            // `try_with`: a guard dropped while its thread's locals are
            // being destroyed records nothing instead of panicking.
            let _ = TRACE.try_with(|t| {
                if let Some(events) = t.borrow_mut().as_mut() {
                    events.push(event);
                }
            });
        }
    }
}

/// Every span name the workspace may open, each at exactly one call
/// site. See the module docs' span taxonomy table for what each one
/// covers. `pcpm-lint` checks call sites against this registry, so
/// adding a span means adding it here *and* to the table.
pub const SPAN_NAMES: [&str; 10] = [
    "prepare",
    "repair",
    "scatter",
    "gather",
    "scatter_many",
    "gather_many",
    "step",
    "step_many",
    "update",
    "replay_batch",
];

/// An opaque wall-clock stopwatch, started by [`stopwatch`].
///
/// This is the only clock handle kernel crates may hold: it exposes
/// elapsed time for phase-timing reports but no absolute timestamp, so
/// no kernel decision can branch on "what time is it".
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Wall-clock time since [`stopwatch`] created this handle.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Starts a [`Stopwatch`]. The telemetry module owns wall-clock access
/// for the kernel crates (see module docs); this is the sanctioned
/// replacement for `Instant::now()` in phase-timing code.
pub fn stopwatch() -> Stopwatch {
    Stopwatch {
        start: Instant::now(),
    }
}

/// Opens a span named `name` covering the guard's lifetime.
pub fn span(name: &'static str) -> SpanGuard {
    span_impl(name, None)
}

/// Opens a span with a numeric argument (step index, batch index, …).
pub fn span_n(name: &'static str, arg: u64) -> SpanGuard {
    span_impl(name, Some(arg))
}

fn span_impl(name: &'static str, arg: Option<u64>) -> SpanGuard {
    let start_us = TRACE.with(|t| t.borrow().is_some()).then(now_us);
    SpanGuard {
        name,
        arg,
        start_us,
    }
}

/// Serializes spans as Chrome-trace-format JSON (an array of complete
/// events; `ts`/`dur` in microseconds, one thread per trace, so every
/// event carries `tid` 1), the format `chrome://tracing` and Perfetto
/// open directly.
pub fn write_chrome_trace<W: Write>(mut w: W, events: &[TraceEvent]) -> std::io::Result<()> {
    writeln!(w, "[")?;
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        match e.arg {
            Some(n) => writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"n\":{}}}}}{}",
                e.name, e.ts_us, e.dur_us, n, comma
            )?,
            None => writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{}}}{}",
                e.name, e.ts_us, e.dur_us, comma
            )?,
        }
    }
    writeln!(w, "]")?;
    Ok(())
}

/// Renders spans as a Chrome-trace JSON string (see
/// [`write_chrome_trace`]).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, events).expect("write to Vec cannot fail");
    String::from_utf8(buf).expect("trace output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader sufficient to validate the Chrome-trace
    /// output: objects, arrays, strings, integers. Returns true iff the
    /// whole input is one valid value.
    fn json_parses(s: &str) -> bool {
        fn skip_ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && (b[i] as char).is_whitespace() {
                i += 1;
            }
            i
        }
        fn value(b: &[u8], i: usize) -> Option<usize> {
            let i = skip_ws(b, i);
            match b.get(i)? {
                b'[' => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b']') {
                        return Some(i + 1);
                    }
                    loop {
                        i = value(b, i)?;
                        i = skip_ws(b, i);
                        match b.get(i)? {
                            b',' => i += 1,
                            b']' => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                b'{' => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b'}') {
                        return Some(i + 1);
                    }
                    loop {
                        i = skip_ws(b, i);
                        if *b.get(i)? != b'"' {
                            return None;
                        }
                        i = value(b, i)?; // key string
                        i = skip_ws(b, i);
                        if *b.get(i)? != b':' {
                            return None;
                        }
                        i = value(b, i + 1)?;
                        i = skip_ws(b, i);
                        match b.get(i)? {
                            b',' => i += 1,
                            b'}' => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                b'"' => {
                    let mut i = i + 1;
                    while *b.get(i)? != b'"' {
                        i += 1;
                    }
                    Some(i + 1)
                }
                b'0'..=b'9' | b'-' => {
                    let mut i = i + 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    Some(i)
                }
                _ => None,
            }
        }
        let b = s.as_bytes();
        match value(b, 0) {
            Some(end) => skip_ws(b, end) == b.len(),
            None => false,
        }
    }

    #[test]
    fn spans_nest_are_monotonic_and_serialize_to_valid_json() {
        start_tracing();
        {
            let _outer = span_n("step", 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("scatter");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner = span("gather");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let events = stop_tracing();
        assert_eq!(events.len(), 3, "three spans recorded");
        // Children are recorded (dropped) before the parent.
        let scatter = events.iter().find(|e| e.name == "scatter").unwrap();
        let gather = events.iter().find(|e| e.name == "gather").unwrap();
        let step = events.iter().find(|e| e.name == "step").unwrap();
        assert_eq!(step.arg, Some(0));
        // Proper nesting: both phases inside the step interval.
        for child in [scatter, gather] {
            assert!(child.ts_us >= step.ts_us);
            assert!(child.ts_us + child.dur_us <= step.ts_us + step.dur_us);
        }
        // Monotonic: gather starts after scatter ends.
        assert!(gather.ts_us >= scatter.ts_us + scatter.dur_us);

        let json = chrome_trace_json(&events);
        assert!(json_parses(&json), "trace must be valid JSON:\n{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"scatter\""));
        assert!(json.contains("\"args\":{\"n\":0}"));
        // And an empty trace is still a valid document.
        assert!(json_parses(&chrome_trace_json(&[])));
    }

    #[test]
    fn spans_are_noops_when_tracing_is_off() {
        let g = span("never-recorded");
        assert!(g.start_us.is_none());
        drop(g);
        assert!(stop_tracing().is_empty(), "no collection was running");
    }

    /// A trace belongs to the thread that started it: while thread A
    /// traces, spans opened on thread B stay out of A's trace, and a
    /// guard created on B is born (and stays) disabled.
    #[test]
    fn a_trace_records_only_its_own_threads_spans() {
        use std::sync::mpsc::channel;
        let (started_tx, started_rx) = channel();
        let (opened_tx, opened_rx) = channel();
        let tracer = std::thread::spawn(move || {
            start_tracing();
            started_tx.send(()).unwrap();
            opened_rx.recv().unwrap();
            {
                let _own = span("gather");
            }
            stop_tracing()
        });
        started_rx.recv().unwrap();
        // Thread A is tracing now; B (this thread) opens spans of its own.
        let other = span("scatter");
        assert!(other.start_us.is_none(), "B is not tracing");
        {
            let _nested = span_n("step", 7);
        }
        drop(other);
        opened_tx.send(()).unwrap();
        let events = tracer.join().unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["gather"], "A's trace holds only A's span");
        assert!(stop_tracing().is_empty(), "B collected nothing");
    }
}

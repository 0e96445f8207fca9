#![deny(missing_docs)]
//! # llamp-obs — zero-overhead-when-off tracing, metrics and profiling
//!
//! A hand-rolled span/metrics core for the LLAMP pipeline (the registry
//! is unreachable in this build environment, so no `tracing` /
//! `metrics` crates — same shim philosophy as `crates/shims`). Three
//! primitives:
//!
//! * **spans** — hierarchical timed regions with structured key/value
//!   fields, opened with [`span()`] and closed by RAII guard drop.
//!   Per-thread buffers collect closed spans and drain into the thread's
//!   [`Recorder`] whenever its root span closes, so workers never
//!   contend mid-task.
//! * **metrics** — monotonic [`counter`]s and HDR-style log-bucketed
//!   [`Histogram`]s ([`observe_ns`] / [`time`]) in the recorder's
//!   thread-safe registry.
//! * **exporters** — [`take`] drains everything into a [`Snapshot`],
//!   which renders as a human-readable aggregate tree
//!   ([`Summary::render`]) or a `chrome://tracing` JSON file
//!   ([`Snapshot::chrome_trace_json`]).
//!
//! ## A recorder belongs to the thread that installs it
//!
//! [`enable`] installs a fresh recorder on the calling thread, [`take`]
//! drains it and [`disable`] uninstalls it; threads never see each
//! other's recordings. **Every spawn site must pass the recorder on**,
//! together with the `llamp-faults` handle: capture [`current`] before
//! spawning and [`Recorder::install`] it in the new thread, as the
//! executor and the partitioned reduction do.
//!
//! ## The off switch is the design
//!
//! While no thread records, every entry point loads one relaxed atomic
//! and returns: no clock read, no allocation, no lock. [`span()`]
//! returns an inert guard, [`counter`]/[`observe_ns`] return before
//! touching the registry, and [`time`] runs its closure untimed. The LP
//! crate's counting-allocator harness (`crates/lp/tests/alloc_count.rs`)
//! certifies that the instrumented simplex hot loop stays
//! zero-allocation with recording off.
//!
//! ## Determinism contract
//!
//! Telemetry is strictly *out-of-band*: nothing recorded here may enter
//! results JSON, cache keys or any other deterministic artifact.
//! Enabling or disabling recording must never change a computed result
//! — the engine's integration tests run the full campaign pipeline both
//! ways and require byte-identical output (see
//! `docs/OBSERVABILITY.md`).
//!
//! ## Usage
//!
//! ```
//! llamp_obs::enable();
//! {
//!     let s = llamp_obs::span("solve");
//!     s.field_u64("iterations", 42);
//!     llamp_obs::counter("cache.pt.hit", 1);
//!     llamp_obs::observe_ns("solve.point_ns", 1_500);
//! }
//! let snapshot = llamp_obs::take();
//! llamp_obs::disable();
//! assert_eq!(snapshot.events.len(), 1);
//! let tree = snapshot.summary().render();
//! assert!(tree.contains("solve"));
//! ```

pub mod hist;
pub mod report;

pub use hist::{Histogram, HistogramSummary};
pub use report::{Snapshot, SpanAgg, SpanEvent, Summary};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// A structured span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes).
    U64(u64),
    /// Float (rates, drifts).
    F64(f64),
    /// Short label (backend names, workload names).
    Str(String),
}

// ---------------------------------------------------------------------
// Recorders, installed per thread.
// ---------------------------------------------------------------------

/// Recorders installed on some thread. Only a filter for the off path:
/// zero means no thread records. `Relaxed` suffices because a thread
/// only ever reads recorder state it installed itself.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

/// Epoch for all timestamps. Set once per process so Chrome-trace
/// timestamps stay monotone across enable/disable cycles.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A recording: the sink that spans and metrics drain into, shared by
/// every thread it is installed on, and the counter that gives each of
/// those threads its own lane.
#[derive(Clone)]
pub struct Recorder(Arc<Shared>);

#[derive(Default)]
struct Shared {
    sink: Mutex<Snapshot>,
    lanes: AtomicU32,
}

struct OpenFrame {
    name: &'static str,
    path: String,
    start_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

/// A recorder as installed on one thread, with the thread's lane and
/// span buffer.
struct Local {
    rec: Recorder,
    tid: u32,
    stack: Vec<OpenFrame>,
    done: Vec<SpanEvent>,
}

impl Local {
    fn new(rec: Recorder) -> Self {
        INSTALLED.fetch_add(1, Ordering::Relaxed);
        let tid = rec.0.lanes.fetch_add(1, Ordering::Relaxed) + 1;
        Local {
            rec,
            tid,
            stack: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Also runs in `drop`, which must not panic: a poisoned sink loses
    /// the spans.
    fn flush(&mut self) {
        if let Ok(mut sink) = self.rec.0.sink.lock() {
            sink.events.append(&mut self.done);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
        INSTALLED.fetch_sub(1, Ordering::Relaxed);
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Start recording on the calling thread into a fresh recorder.
pub fn enable() {
    let fresh = Local::new(Recorder(Arc::default()));
    LOCAL.with(|l| l.replace(Some(fresh)));
}

/// Stop recording on the calling thread. Spans still open keep
/// unwinding their stacks correctly; they are simply no longer exported.
pub fn disable() {
    LOCAL.with(RefCell::take);
}

/// Whether the calling thread records. The single branch every
/// instrumentation point pays when no thread records.
#[inline(always)]
pub fn is_enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0 && LOCAL.with(|l| l.borrow().is_some())
}

/// The recorder of the calling thread, for a spawn site to pass on.
pub fn current() -> Option<Recorder> {
    LOCAL.with(|l| Some(l.borrow().as_ref()?.rec.clone()))
}

impl Recorder {
    /// Record into this recorder on the calling thread, on a lane of its
    /// own, until the guard drops (also on unwind); the drop flushes the
    /// thread's closed spans and restores its previous recorder.
    pub fn install(&self) -> RecorderGuard {
        let fresh = Local::new(self.clone());
        RecorderGuard(LOCAL.with(|l| l.replace(Some(fresh))), PhantomData)
    }

    fn sink(&self) -> MutexGuard<'_, Snapshot> {
        self.0.sink.lock().expect("obs sink")
    }
}

/// Restores the thread's previous recorder on drop ([`Recorder::install`]).
#[must_use = "the recorder is uninstalled when the guard drops"]
pub struct RecorderGuard(Option<Local>, PhantomData<*const ()>);

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        let prev = self.0.take();
        let _ = LOCAL.try_with(|l| l.replace(prev));
    }
}

/// Drain everything the calling thread's recorder collected since
/// [`enable`] into a [`Snapshot`] (flushing the calling thread's buffer
/// first; worker threads flush when their root spans close).
pub fn take() -> Snapshot {
    LOCAL.with(|l| match l.borrow_mut().as_mut() {
        Some(local) => {
            local.flush();
            std::mem::take(&mut *local.rec.sink())
        }
        None => Snapshot::default(),
    })
}

/// Run `f` on the calling thread's sink, if it records.
#[inline]
fn with_sink(f: impl FnOnce(&mut Snapshot)) {
    if INSTALLED.load(Ordering::Relaxed) != 0 {
        LOCAL.with(|l| l.borrow().as_ref().map(|local| f(&mut local.rec.sink())));
    }
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// RAII guard for one open span. Dropping it closes the span and, if it
/// was the thread's root span, drains the thread buffer into the
/// thread's recorder.
#[must_use = "a span measures the scope of its guard; bind it with `let`"]
pub struct SpanGuard {
    /// Depth of this guard's frame (0 = inert guard, recording off).
    depth: usize,
}

/// Open a span. With recording off this is one atomic load and an inert
/// guard — no clock read, no allocation.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return SpanGuard { depth: 0 };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> SpanGuard {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let Some(buf) = l.as_mut() else {
            return SpanGuard { depth: 0 };
        };
        let path = match buf.stack.last() {
            Some(parent) => format!("{}/{}", parent.path, name),
            None => name.to_string(),
        };
        buf.stack.push(OpenFrame {
            name,
            path,
            start_ns: now_ns(),
            fields: Vec::new(),
        });
        SpanGuard {
            depth: buf.stack.len(),
        }
    })
}

impl SpanGuard {
    #[inline]
    fn with_frame(&self, f: impl FnOnce(&mut OpenFrame)) {
        if self.depth == 0 {
            return;
        }
        LOCAL.with(|l| {
            // The frame is gone if the recorder was uninstalled mid-span.
            let mut l = l.borrow_mut();
            if let Some(frame) = l.as_mut().and_then(|b| b.stack.get_mut(self.depth - 1)) {
                f(frame);
            }
        });
    }

    /// Attach an unsigned-integer field.
    #[inline]
    pub fn field_u64(&self, key: &'static str, v: u64) {
        self.with_frame(|fr| fr.fields.push((key, FieldValue::U64(v))));
    }

    /// Attach a float field.
    #[inline]
    pub fn field_f64(&self, key: &'static str, v: f64) {
        self.with_frame(|fr| fr.fields.push((key, FieldValue::F64(v))));
    }

    /// Attach a string field.
    #[inline]
    pub fn field_str(&self, key: &'static str, v: &str) {
        if self.depth == 0 {
            return;
        }
        let v = v.to_string();
        self.with_frame(|fr| fr.fields.push((key, FieldValue::Str(v))));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(buf) = l.as_mut() else {
                return;
            };
            // Guards drop LIFO; anything deeper was leaked by a panic
            // unwinding past its scope — discard those frames silently.
            while buf.stack.len() >= self.depth {
                let frame = buf.stack.pop().expect("frame present");
                if buf.stack.len() + 1 == self.depth {
                    let tid = buf.tid;
                    buf.done.push(SpanEvent {
                        path: frame.path,
                        name: frame.name,
                        tid,
                        start_ns: frame.start_ns,
                        dur_ns: end.saturating_sub(frame.start_ns),
                        fields: frame.fields,
                    });
                }
            }
            if buf.stack.is_empty() {
                buf.flush();
            }
        });
    }
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

/// Add `delta` to the named monotonic counter.
#[inline]
pub fn counter(name: &str, delta: u64) {
    with_sink(|s| match s.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            s.counters.insert(name.to_string(), delta);
        }
    });
}

/// Record one sample (nanoseconds, by convention) into the named
/// histogram.
#[inline]
pub fn observe_ns(name: &str, ns: u64) {
    with_sink(|s| match s.hists.get_mut(name) {
        Some(h) => h.record(ns),
        None => {
            let mut h = Histogram::new();
            h.record(ns);
            s.hists.insert(name.to_string(), h);
        }
    });
}

/// Time a closure into the named histogram. With recording off the
/// closure runs bare — no clock reads.
#[inline]
pub fn time<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if !is_enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    observe_ns(name, start.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        disable();
        let s = span("nothing");
        s.field_u64("n", 1);
        drop(s);
        counter("c", 1);
        observe_ns("h", 5);
        let snap = take();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn nesting_builds_paths_and_flushes_at_root_close() {
        enable();
        {
            let outer = span("outer");
            {
                let inner = span("inner");
                inner.field_u64("k", 7);
            }
            outer.field_str("label", "x");
        }
        let snap = take();
        disable();
        assert_eq!(snap.events.len(), 2);
        // Inner closes first.
        assert_eq!(snap.events[0].path, "outer/inner");
        assert_eq!(snap.events[1].path, "outer");
        assert_eq!(snap.events[0].fields, vec![("k", FieldValue::U64(7))]);
        let summary = snap.summary();
        assert_eq!(summary.spans.len(), 2);
        assert_eq!(summary.spans[0].path, "outer");
        assert_eq!(summary.spans[1].depth, 1);
    }

    #[test]
    fn metrics_accumulate() {
        enable();
        counter("jobs", 2);
        counter("jobs", 3);
        observe_ns("lat", 100);
        observe_ns("lat", 200);
        let snap = take();
        disable();
        assert_eq!(snap.counters.get("jobs"), Some(&5));
        assert_eq!(snap.hists.get("lat").unwrap().count(), 2);
    }

    #[test]
    fn cross_thread_spans_land_on_distinct_lanes() {
        enable();
        let main_span = span("main");
        let rec = current().expect("enabled");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _r = rec.install();
                    let _s = span("worker");
                });
            }
            // A thread the recorder is not passed to records nothing.
            scope.spawn(|| {
                assert!(!is_enabled());
                let _s = span("stray");
                counter("stray", 1);
            });
        });
        drop(main_span);
        let snap = take();
        disable();
        assert_eq!(snap.events.len(), 3);
        let mut tids: Vec<u32> = snap.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread gets its own lane");
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn time_feeds_histogram_only_when_enabled() {
        disable();
        assert_eq!(time("t", || 41) + 1, 42);
        assert!(take().hists.is_empty());
        enable();
        let v = time("t", || 42);
        assert_eq!(v, 42);
        let snap = take();
        disable();
        assert_eq!(snap.hists.get("t").unwrap().count(), 1);
    }
}

//! Structured tracing for the derived-field pipeline.
//!
//! A [`Tracer`] records a tree of named spans with per-span metadata and
//! two clocks: **wall time** (nanoseconds since the tracer was created)
//! and, for device work, the **virtual clock** of the simulated OpenCL
//! device (seconds, deterministic in model mode). Spans open with the
//! [`span!`] macro and close when the returned [`SpanGuard`] drops, so
//! nesting follows lexical scope.
//!
//! A finished recording is snapshotted into a [`Trace`], which can be
//! merged across ranks ([`Trace::merge`]) and exported as Chrome
//! `trace_event` JSON or a plain-text flame summary (see [`export`]).
//!
//! ```
//! use dfg_trace::{span, Tracer};
//!
//! let tracer = Tracer::new();
//! {
//!     let _derive = span!(tracer, "derive");
//!     let _upload = span!(tracer, "staged.upload", bytes = 4096u64, port = "vx");
//! } // guards drop here, closing both spans
//! let trace = tracer.snapshot();
//!
//! assert_eq!(trace.spans().len(), 2);
//! assert_eq!(trace.spans()[0].name, "derive");
//! assert_eq!(trace.spans()[1].name, "staged.upload");
//! // The upload span is nested under the derive span.
//! assert_eq!(trace.spans()[1].parent, Some(0));
//! assert_eq!(trace.spans()[1].meta_u64("bytes"), Some(4096));
//! ```

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub mod export;
pub mod json;

/// A metadata value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (byte counts, cell counts).
    UInt(u64),
    /// Floating point (seconds, rates).
    Float(f64),
    /// Free-form text (port names, kernel names).
    Str(String),
    /// Flags.
    Bool(bool),
}

macro_rules! meta_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for MetaValue {
            fn from(v: $t) -> Self {
                MetaValue::$variant(v as $conv)
            }
        }
    )*};
}

meta_from! {
    i64 => Int as i64,
    i32 => Int as i64,
    u64 => UInt as u64,
    u32 => UInt as u64,
    usize => UInt as u64,
    f64 => Float as f64,
    f32 => Float as f64,
}

impl From<bool> for MetaValue {
    fn from(v: bool) -> Self {
        MetaValue::Bool(v)
    }
}

impl From<&str> for MetaValue {
    fn from(v: &str) -> Self {
        MetaValue::Str(v.to_string())
    }
}

impl From<String> for MetaValue {
    fn from(v: String) -> Self {
        MetaValue::Str(v)
    }
}

/// One recorded span. Indices into [`Trace::spans`] are stable: spans are
/// stored in open order, so a parent always precedes its children.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name, dot-scoped by stage (`"execute.staged"`, `"ocl.h2d"`).
    pub name: String,
    /// Index of the enclosing span, `None` for roots.
    pub parent: Option<usize>,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Track id; 0 for a single-process trace, the rank after [`Trace::merge`].
    pub track: u64,
    /// Wall-clock open time, nanoseconds since the tracer's epoch.
    pub wall_start_ns: u64,
    /// Wall-clock close time. Zero-width spans are valid.
    pub wall_end_ns: u64,
    /// Virtual-clock open time in seconds, for device work.
    pub virt_start: Option<f64>,
    /// Virtual-clock close time in seconds.
    pub virt_end: Option<f64>,
    /// Attached metadata, in insertion order.
    pub meta: Vec<(String, MetaValue)>,
}

impl SpanRecord {
    /// Look up a metadata entry by key.
    pub fn meta_get(&self, key: &str) -> Option<&MetaValue> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Metadata entry as an unsigned integer, if present and integral.
    pub fn meta_u64(&self, key: &str) -> Option<u64> {
        match self.meta_get(key)? {
            MetaValue::UInt(v) => Some(*v),
            MetaValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Wall duration in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.wall_end_ns.saturating_sub(self.wall_start_ns)
    }

    /// Virtual-clock duration in seconds, when both endpoints were recorded.
    pub fn virt_seconds(&self) -> Option<f64> {
        Some(self.virt_end? - self.virt_start?)
    }
}

struct Inner {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

/// Thread-safe span recorder. Cloning is cheap and clones share the same
/// recording (the handle is an `Arc`).
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Create an empty tracer; its epoch (wall-time zero) is now.
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(Inner {
                epoch: Instant::now(),
                spans: Vec::new(),
                stack: Vec::new(),
            })),
        }
    }

    /// Open a span; prefer the [`span!`] macro, which also attaches
    /// metadata.
    pub fn open(&self, name: &str) -> SpanGuard {
        let mut inner = self.inner.lock().expect("tracer lock");
        let now = inner.epoch.elapsed().as_nanos() as u64;
        let parent = inner.stack.last().copied();
        let depth = inner.stack.len();
        let index = inner.spans.len();
        inner.spans.push(SpanRecord {
            name: name.to_string(),
            parent,
            depth,
            track: 0,
            wall_start_ns: now,
            wall_end_ns: now,
            virt_start: None,
            virt_end: None,
            meta: Vec::new(),
        });
        inner.stack.push(index);
        SpanGuard {
            tracer: Some(self.clone()),
            index,
        }
    }

    /// Record a completed device event as a child of the currently open
    /// span: a leaf with explicit virtual-clock endpoints (used by the
    /// device layer, whose events carry model timestamps) that ends now and
    /// spans `wall` of host time — the operation's host body.
    pub fn device_event(
        &self,
        name: &str,
        label: &str,
        bytes: u64,
        virt_start: f64,
        virt_end: f64,
        wall: Duration,
    ) {
        let mut inner = self.inner.lock().expect("tracer lock");
        let now = inner.epoch.elapsed().as_nanos() as u64;
        let wall_start_ns = now.saturating_sub(wall.as_nanos() as u64);
        let parent = inner.stack.last().copied();
        let depth = inner.stack.len();
        let mut meta = vec![("label".to_string(), MetaValue::Str(label.to_string()))];
        if bytes > 0 {
            meta.push(("bytes".to_string(), MetaValue::UInt(bytes)));
        }
        inner.spans.push(SpanRecord {
            name: name.to_string(),
            parent,
            depth,
            track: 0,
            wall_start_ns,
            wall_end_ns: now,
            virt_start: Some(virt_start),
            virt_end: Some(virt_end),
            meta,
        });
    }

    /// Snapshot the recording so far. Open spans appear with their current
    /// wall end set to their start (they close when their guards drop).
    pub fn snapshot(&self) -> Trace {
        let inner = self.inner.lock().expect("tracer lock");
        Trace {
            spans: inner.spans.clone(),
        }
    }

    /// Number of spans recorded so far — a mark for
    /// [`Tracer::snapshot_since`].
    pub fn span_count(&self) -> usize {
        self.inner.lock().expect("tracer lock").spans.len()
    }

    /// Snapshot only the spans recorded at or after `mark` (a prior
    /// [`Tracer::span_count`]). Parent indices are rebased to the new
    /// slice; a span whose parent predates the mark becomes a root and
    /// depths are recomputed accordingly. This is how the engine scopes
    /// each run's report to that run's spans while the tracer itself keeps
    /// accumulating the full session.
    pub fn snapshot_since(&self, mark: usize) -> Trace {
        let inner = self.inner.lock().expect("tracer lock");
        let mut spans: Vec<SpanRecord> = inner.spans[mark.min(inner.spans.len())..].to_vec();
        for i in 0..spans.len() {
            spans[i].parent = spans[i].parent.and_then(|p| p.checked_sub(mark));
            spans[i].depth = match spans[i].parent {
                Some(p) => spans[p].depth + 1,
                None => 0,
            };
        }
        Trace { spans }
    }
}

/// RAII handle for an open span; the span closes when this drops.
pub struct SpanGuard {
    tracer: Option<Tracer>,
    index: usize,
}

impl SpanGuard {
    /// A guard that records nothing (used when tracing is disabled).
    pub fn disabled() -> Self {
        SpanGuard {
            tracer: None,
            index: 0,
        }
    }

    /// Attach a metadata entry; chainable.
    pub fn meta(self, key: &str, value: impl Into<MetaValue>) -> Self {
        if let Some(tracer) = &self.tracer {
            let mut inner = tracer.inner.lock().expect("tracer lock");
            let idx = self.index;
            inner.spans[idx].meta.push((key.to_string(), value.into()));
        }
        self
    }

    /// Record the virtual-clock time at which this span's work begins.
    pub fn virt_start(&self, t: f64) {
        if let Some(tracer) = &self.tracer {
            let mut inner = tracer.inner.lock().expect("tracer lock");
            let idx = self.index;
            inner.spans[idx].virt_start = Some(t);
        }
    }

    /// Record the virtual-clock time at which this span's work ends.
    pub fn virt_end(&self, t: f64) {
        if let Some(tracer) = &self.tracer {
            let mut inner = tracer.inner.lock().expect("tracer lock");
            let idx = self.index;
            inner.spans[idx].virt_end = Some(t);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(tracer) = &self.tracer {
            let mut inner = tracer.inner.lock().expect("tracer lock");
            let now = inner.epoch.elapsed().as_nanos() as u64;
            let idx = self.index;
            inner.spans[idx].wall_end_ns = now;
            // Close out-of-order drops gracefully: pop until this span's
            // frame is gone (children dropped after their parent are
            // recorded but re-parented spans never corrupt the stack).
            while let Some(top) = inner.stack.pop() {
                if top == idx {
                    break;
                }
            }
        }
    }
}

/// Anything [`span!`] can open a span on: a [`Tracer`], an optional
/// tracer, or references to either. Disabled (`None`) sources yield
/// no-op guards, so instrumented code pays one branch when tracing is off.
pub trait TracerLike {
    /// The tracer to record into, if any.
    fn tracer(&self) -> Option<&Tracer>;
}

impl TracerLike for Tracer {
    fn tracer(&self) -> Option<&Tracer> {
        Some(self)
    }
}

impl TracerLike for Option<Tracer> {
    fn tracer(&self) -> Option<&Tracer> {
        self.as_ref()
    }
}

impl TracerLike for Option<&Tracer> {
    fn tracer(&self) -> Option<&Tracer> {
        *self
    }
}

impl<T: TracerLike> TracerLike for &T {
    fn tracer(&self) -> Option<&Tracer> {
        (*self).tracer()
    }
}

/// Open a span on `source` (see [`TracerLike`]); used by [`span!`].
pub fn open_span<T: TracerLike>(source: &T, name: &str) -> SpanGuard {
    match source.tracer() {
        Some(tracer) => tracer.open(name),
        None => SpanGuard::disabled(),
    }
}

/// Open a named span with optional `key = value` metadata. The span stays
/// open until the returned [`SpanGuard`] drops.
///
/// ```
/// use dfg_trace::{span, Tracer};
/// let tracer = Tracer::new();
/// let guard = span!(tracer, "plan", strategy = "fusion", ncells = 512usize);
/// drop(guard);
/// let spans = tracer.snapshot();
/// assert_eq!(spans.spans()[0].meta_u64("ncells"), Some(512));
/// ```
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let guard = $crate::open_span(&$tracer, $name);
        $( let guard = guard.meta(stringify!($key), $value); )*
        guard
    }};
}

/// A finished recording: an ordered forest of [`SpanRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<SpanRecord>,
}

impl Trace {
    /// All spans, in open order (parents before children).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total virtual-clock seconds across spans that carry device time,
    /// counting only leaves so nested device spans are not double-counted.
    pub fn device_seconds(&self) -> f64 {
        let mut has_child_with_virt = vec![false; self.spans.len()];
        for span in &self.spans {
            if span.virt_seconds().is_some() {
                if let Some(p) = span.parent {
                    has_child_with_virt[p] = true;
                }
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.virt_seconds().is_some() && !has_child_with_virt[*i])
            .map(|(_, s)| s.virt_seconds().unwrap_or(0.0))
            .sum()
    }

    /// Merge per-rank traces into one, tagging every span with its rank:
    /// span `track` ids become the rank number and a `rank` metadata entry
    /// is added, so exporters render one lane per rank.
    pub fn merge(parts: impl IntoIterator<Item = (u64, Trace)>) -> Trace {
        let mut merged = Vec::new();
        for (rank, part) in parts {
            let offset = merged.len();
            for span in part.spans {
                let mut span = span;
                span.parent = span.parent.map(|p| p + offset);
                span.track = rank;
                span.meta.push(("rank".to_string(), MetaValue::UInt(rank)));
                merged.push(span);
            }
        }
        Trace { spans: merged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_follows_scope() {
        let tracer = Tracer::new();
        {
            let _a = span!(tracer, "a");
            {
                let _b = span!(tracer, "b");
                let _c = span!(tracer, "c");
            }
            let _d = span!(tracer, "d");
        }
        let trace = tracer.snapshot();
        let names: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
        assert_eq!(trace.spans()[0].parent, None);
        assert_eq!(trace.spans()[1].parent, Some(0));
        assert_eq!(trace.spans()[2].parent, Some(1));
        assert_eq!(trace.spans()[3].parent, Some(0));
        assert_eq!(trace.spans()[2].depth, 2);
    }

    #[test]
    fn disabled_source_records_nothing() {
        let none: Option<Tracer> = None;
        let guard = span!(none, "ignored", bytes = 9u64);
        drop(guard);
        // No tracer — nothing to assert on except that this compiled and
        // did not panic.
    }

    #[test]
    fn device_events_nest_under_open_span() {
        let tracer = Tracer::new();
        {
            let _g = span!(tracer, "execute");
            tracer.device_event("ocl.h2d", "vx", 1024, 0.0, 0.25, Duration::ZERO);
            tracer.device_event("ocl.kernel", "mag", 0, 0.25, 0.75, Duration::from_nanos(1));
        }
        let trace = tracer.snapshot();
        assert_eq!(trace.spans().len(), 3);
        assert_eq!(trace.spans()[1].parent, Some(0));
        assert_eq!(trace.spans()[1].meta_u64("bytes"), Some(1024));
        assert_eq!(trace.spans()[2].virt_seconds(), Some(0.5));
        assert_eq!(trace.spans()[1].wall_ns(), 0);
        assert_eq!(trace.spans()[2].wall_ns(), 1, "the host body's wall time");
        assert!((trace.device_seconds() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn snapshot_since_rebases_parents_and_depths() {
        let tracer = Tracer::new();
        {
            let _a = span!(tracer, "first");
            let _b = span!(tracer, "first.child");
        }
        let mark = tracer.span_count();
        assert_eq!(mark, 2);
        {
            let _c = span!(tracer, "second");
            let _d = span!(tracer, "second.child");
        }
        let since = tracer.snapshot_since(mark);
        let names: Vec<&str> = since.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["second", "second.child"]);
        assert_eq!(since.spans()[0].parent, None);
        assert_eq!(since.spans()[1].parent, Some(0));
        assert_eq!(since.spans()[1].depth, 1);
        // The full snapshot still holds everything.
        assert_eq!(tracer.snapshot().spans().len(), 4);
        // A mark past the end yields an empty trace rather than panicking.
        assert!(tracer.snapshot_since(99).spans().is_empty());
    }

    #[test]
    fn snapshot_since_orphans_spans_whose_parent_predates_the_mark() {
        let tracer = Tracer::new();
        let _outer = span!(tracer, "outer");
        let mark = tracer.span_count();
        {
            let _inner = span!(tracer, "inner");
        }
        let since = tracer.snapshot_since(mark);
        assert_eq!(since.spans().len(), 1);
        assert_eq!(since.spans()[0].parent, None, "rebased to a root");
        assert_eq!(since.spans()[0].depth, 0);
    }

    #[test]
    fn merge_tags_ranks_and_fixes_parents() {
        let make = |root: &str| {
            let t = Tracer::new();
            {
                let _r = span!(t, root);
                let _c = span!(t, "child");
            }
            t.snapshot()
        };
        let merged = Trace::merge(vec![(0, make("rank0")), (1, make("rank1"))]);
        assert_eq!(merged.spans().len(), 4);
        assert_eq!(merged.spans()[3].parent, Some(2));
        assert_eq!(merged.spans()[3].track, 1);
        assert_eq!(merged.spans()[3].meta_u64("rank"), Some(1));
    }
}

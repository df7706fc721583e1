//! Unified observability for the tokq workspace: structured events,
//! latency metrics, and a post-mortem flight recorder, shared by the
//! threaded runtime and the discrete-event simulator.
//!
//! # Architecture
//!
//! * [`metrics::Registry`] — counters, gauges, and log-bucketed latency
//!   histograms with lock-free atomic hot paths.
//! * [`Event`] — one structured record; serialized as one JSONL line in
//!   a schema shared by simulator and runtime (see [`event`]).
//! * [`Sink`] — pluggable event destinations: the bounded
//!   [`FlightRecorder`], streaming [`sink::JsonlWriter`], in-memory
//!   [`sink::CollectSink`].
//! * [`TraceFilter`] — `TOKQ_TRACE=arbiter=debug,net=trace` style
//!   verbosity gating with a one-atomic-load fast reject.
//! * [`Obs`] — the handle tying the above together; cheap to clone and
//!   share across threads.
//! * [`TraceKind`] — the one event vocabulary the simulator, the model
//!   checker and the runtime emit, rendered by [`timeline`].
//!
//! # Example
//!
//! ```
//! use tokq_obs::{Level, Obs, Source, TraceFilter};
//!
//! let obs = Obs::with_filter(Source::Runtime, TraceFilter::with_default(Level::Debug));
//! let recorder = obs.attach_flight_recorder(64, Level::Debug);
//!
//! // Metrics: atomic hot path via cheap handles.
//! let sent = obs.registry().counter_with("msg_sent", "request");
//! sent.inc();
//!
//! // Structured events: one JSONL line per event.
//! obs.emit(tokq_obs::Event::new("arbiter", Level::Debug, "qlist_sealed")
//!     .node(3)
//!     .field("len", &4u64));
//!
//! // Spans: wall-clock latency into a histogram plus open/close events.
//! {
//!     let _span = obs.span("arbiter", "request_collection");
//! }
//!
//! assert_eq!(recorder.snapshot().len(), 3); // event + span open/close
//! let jsonl = recorder.dump_jsonl();
//! assert!(jsonl.lines().count() >= 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod level;
pub mod metrics;
pub mod sink;
pub mod vocab;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

pub use event::{Event, Source};
pub use level::{Level, TraceFilter};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, Registry, Snapshot};
pub use sink::{CollectSink, FlightRecorder, Sink};
pub use vocab::{timeline, TraceKind};

struct ObsInner {
    source: Source,
    filter: TraceFilter,
    registry: Registry,
    sinks: RwLock<Vec<Arc<dyn Sink>>>,
    recorder: RwLock<Option<Arc<FlightRecorder>>>,
    /// Max level the flight recorder captures, independent of the filter.
    record_level: AtomicU8,
    start: Instant,
}

/// The observability handle: filter, registry, and sinks behind an `Arc`.
///
/// Cloning is cheap; all clones share state. Events pass the
/// [`TraceFilter`] to reach attached sinks; the [`FlightRecorder`], when
/// attached, captures independently of the filter so post-mortem history
/// is available even with streaming output off.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("source", &self.inner.source)
            .field("filter", &self.inner.filter)
            .field("sinks", &self.inner.sinks.read().len())
            .finish()
    }
}

impl Obs {
    /// An observability handle filtered by the `TOKQ_TRACE` environment
    /// variable (unset means everything off).
    pub fn from_env(source: Source) -> Self {
        Obs::with_filter(source, TraceFilter::from_env())
    }

    /// An observability handle with an explicit filter.
    pub fn with_filter(source: Source, filter: TraceFilter) -> Self {
        Obs {
            inner: Arc::new(ObsInner {
                source,
                filter,
                registry: Registry::new(),
                sinks: RwLock::new(Vec::new()),
                recorder: RwLock::new(None),
                record_level: AtomicU8::new(Level::Off as u8),
                start: Instant::now(),
            }),
        }
    }

    /// A handle that drops everything (no filter matches, no sinks); the
    /// zero-overhead default for production paths.
    pub fn disabled(source: Source) -> Self {
        Obs::with_filter(source, TraceFilter::off())
    }

    /// The clock domain of this handle.
    pub fn source(&self) -> Source {
        self.inner.source
    }

    /// The metrics registry (always live, independent of trace filtering).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The active trace filter.
    pub fn filter(&self) -> &TraceFilter {
        &self.inner.filter
    }

    /// Adds an event sink receiving filter-passed events.
    pub fn add_sink(&self, sink: Arc<dyn Sink>) {
        self.inner.sinks.write().push(sink);
    }

    /// Attaches a flight recorder capturing the last `capacity` events at
    /// or below `level`, regardless of the trace filter. Returns the
    /// recorder for later [`FlightRecorder::dump_jsonl`]. Replaces any
    /// previously attached recorder.
    pub fn attach_flight_recorder(&self, capacity: usize, level: Level) -> Arc<FlightRecorder> {
        let recorder = FlightRecorder::new(capacity);
        *self.inner.recorder.write() = Some(recorder.clone());
        self.inner
            .record_level
            .store(level as u8, Ordering::Relaxed);
        recorder
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.inner.recorder.read().clone()
    }

    /// Whether an event at `level` for `target` would go anywhere.
    ///
    /// This is the hot-path pre-check: when it returns `false` the caller
    /// can skip building the [`Event`] entirely. The common disabled case
    /// costs two relaxed atomic loads.
    #[inline]
    pub fn enabled(&self, target: &str, level: Level) -> bool {
        level as u8 <= self.inner.record_level.load(Ordering::Relaxed)
            || self.inner.filter.enabled(target, level)
    }

    /// Seconds since this handle was created (the runtime `ts` domain).
    pub fn now(&self) -> f64 {
        self.inner.start.elapsed().as_secs_f64()
    }

    /// Stamps `event` with the current wall-clock offset and routes it.
    pub fn emit(&self, event: Event) {
        let ts = self.now();
        self.emit_at(ts, event);
    }

    /// Routes `event` with an explicit timestamp (simulated seconds in
    /// the [`Source::Sim`] domain).
    pub fn emit_at(&self, ts: f64, mut event: Event) {
        event.ts = ts;
        event.src = self.inner.source;
        if event.level as u8 <= self.inner.record_level.load(Ordering::Relaxed) {
            if let Some(recorder) = self.inner.recorder.read().as_ref() {
                recorder.emit(&event);
            }
        }
        if self.inner.filter.enabled(&event.target, event.level) {
            for sink in self.inner.sinks.read().iter() {
                sink.emit(&event);
            }
        }
    }

    /// Opens a wall-clock span: emits `span_open` now and, when the
    /// guard drops, `span_close` plus a sample in the `span_ns/<name>`
    /// histogram. Runtime clock domain only — simulator code should
    /// instead call [`Obs::record_latency`] with virtual durations.
    pub fn span(&self, target: &'static str, name: &'static str) -> SpanGuard {
        let emit = self.enabled(target, Level::Debug);
        if emit {
            self.emit(Event::new(target, Level::Debug, "span_open").field("span", &name));
        }
        SpanGuard {
            obs: self.clone(),
            target,
            name,
            node: None,
            start: Instant::now(),
            emit,
        }
    }

    /// Records a latency sample (nanoseconds) into `span_ns/<name>`.
    /// The simulator's entry point for virtual-time latencies.
    pub fn record_latency(&self, name: &'static str, nanos: u64) {
        self.inner
            .registry
            .histogram_with("span_ns", name)
            .record(nanos);
    }
}

/// RAII guard returned by [`Obs::span`]; closing happens on drop.
#[derive(Debug)]
pub struct SpanGuard {
    obs: Obs,
    target: &'static str,
    name: &'static str,
    node: Option<u64>,
    start: Instant,
    emit: bool,
}

impl SpanGuard {
    /// Tags the span (and its close event) with a node id.
    pub fn on_node(mut self, node: u64) -> Self {
        self.node = Some(node);
        self
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.obs
            .inner
            .registry
            .histogram_with("span_ns", self.name)
            .record_duration(elapsed);
        if self.emit {
            let mut event = Event::new(self.target, Level::Debug, "span_close")
                .field("span", &self.name)
                .field(
                    "dur_ns",
                    &(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64),
                );
            event.node = self.node;
            self.obs.emit(event);
        }
    }
}

/// Opens a span on an [`Obs`] handle: `span!(obs, "request_collection")`
/// uses the current module path as the target; the three-argument form
/// names the target explicitly.
#[macro_export]
macro_rules! span {
    ($obs:expr, $target:expr, $name:expr) => {
        $obs.span($target, $name)
    };
    ($obs:expr, $name:expr) => {
        $obs.span(module_path!(), $name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_emits_nothing() {
        let obs = Obs::disabled(Source::Runtime);
        let collect = CollectSink::new();
        obs.add_sink(collect.clone());
        assert!(!obs.enabled("arbiter", Level::Info));
        obs.emit(Event::new("arbiter", Level::Info, "ignored"));
        assert!(collect.is_empty());
    }

    #[test]
    fn filter_routes_to_sinks() {
        let obs = Obs::with_filter(Source::Runtime, TraceFilter::parse("arbiter=debug"));
        let collect = CollectSink::new();
        obs.add_sink(collect.clone());
        obs.emit(Event::new("arbiter", Level::Debug, "yes"));
        obs.emit(Event::new("arbiter", Level::Trace, "too_chatty"));
        obs.emit(Event::new("net", Level::Info, "wrong_target"));
        let names: Vec<String> = collect.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["yes"]);
    }

    #[test]
    fn recorder_captures_despite_off_filter() {
        let obs = Obs::disabled(Source::Runtime);
        let recorder = obs.attach_flight_recorder(8, Level::Debug);
        assert!(obs.enabled("arbiter", Level::Debug));
        obs.emit(Event::new("arbiter", Level::Debug, "captured"));
        obs.emit(Event::new("arbiter", Level::Trace, "too_fine"));
        let names: Vec<String> = recorder.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["captured"]);
    }

    #[test]
    fn span_records_histogram_and_events() {
        let obs = Obs::with_filter(Source::Runtime, TraceFilter::with_default(Level::Debug));
        let collect = CollectSink::new();
        obs.add_sink(collect.clone());
        {
            let _g = span!(obs, "arbiter", "request_collection").on_node(2);
        }
        let events = collect.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "span_open");
        assert_eq!(events[1].name, "span_close");
        assert_eq!(events[1].node, Some(2));
        let snap = obs.registry().snapshot();
        assert_eq!(snap.histograms["span_ns/request_collection"].count, 1);
    }

    #[test]
    fn span_histogram_recorded_even_when_disabled() {
        let obs = Obs::disabled(Source::Runtime);
        drop(obs.span("arbiter", "cs_grant"));
        let snap = obs.registry().snapshot();
        assert_eq!(snap.histograms["span_ns/cs_grant"].count, 1);
    }

    #[test]
    fn sim_timestamps_pass_through() {
        let obs = Obs::with_filter(Source::Sim, TraceFilter::with_default(Level::Trace));
        let collect = CollectSink::new();
        obs.add_sink(collect.clone());
        obs.emit_at(12.5, Event::new("sim", Level::Info, "tick"));
        let e = &collect.events()[0];
        assert_eq!(e.ts, 12.5);
        assert_eq!(e.src, Source::Sim);
    }

    #[test]
    fn record_latency_lands_in_span_histogram() {
        let obs = Obs::disabled(Source::Sim);
        obs.record_latency("cs_grant", 5_000);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.histograms["span_ns/cs_grant"].count, 1);
    }
}

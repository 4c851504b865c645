//! # alss-telemetry
//!
//! Zero-dependency structured tracing, metrics, and profiling hooks for the
//! ALSS workspace. Three layers:
//!
//! 1. **Tracing core** ([`span`]) — RAII [`Span`] scopes with per-thread
//!    span stacks and monotonic timing, plus a [`Stopwatch`] for explicit
//!    interval measurement. Completed spans are routed to a pluggable
//!    [`Sink`]: a JSON-lines file sink, a pretty stderr sink, and a
//!    test-capturing sink ship in [`sink`].
//! 2. **Metrics registry** ([`registry`]) — named [`Counter`]s, [`Gauge`]s,
//!    and log-scale [`LogHistogram`]s (p50/p95/p99/max). [`snapshot`]
//!    freezes the registry into a [`Snapshot`] that serializes to the same
//!    JSON-lines schema the sinks write.
//! 3. **Probes** — the instrumented crates (`alss-graph`, `alss-core`,
//!    `alss-matching`, `alss-estimators`, `alss-bench`) call [`Span::enter`],
//!    [`counter`], [`event`], … directly; every probe is free when disabled.
//!
//! ## Gating
//!
//! Recording is **double-gated**:
//!
//! * at **compile time** by the `telemetry` cargo feature — with it off,
//!   [`enabled`] is a constant `false` and the optimizer removes every
//!   probe body, so the hot paths cost nothing;
//! * at **run time** by the `ALSS_TELEMETRY` environment filter — a
//!   comma-separated subset of `spans`, `metrics`, `events` (or `all` /
//!   `off`), parsed once into a bitmask checked with one relaxed atomic
//!   load per probe.
//!
//! [`progress`] is the one exception: it replaces the ad-hoc
//! `println!`-style progress reporting of the bench binaries and therefore
//! always prints (to the installed sink when one accepts it, else to
//! stderr in the same `[alss:<topic>] <message>` format).
//!
//! ## JSON-lines schema
//!
//! Every emitted line is one JSON object tagged by `"type"`:
//!
//! ```json
//! {"type":"span","name":"decompose","path":"encode.query/decompose","thread":"main","us":12.5}
//! {"type":"event","name":"train.epoch","fields":{"epoch":1,"loss":0.52,"grad_norm":1.8,"lr":0.003}}
//! {"type":"progress","topic":"fig4","message":"aids: 80 train / 20 test"}
//! {"type":"snapshot","counters":{"matching.nodes_expanded":10234},"gauges":{},"histograms":{"matching.root_us":{"count":96,"sum":5120,"mean":53.3,"p50":48,"p95":96,"p99":96,"max":101}}}
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests assert exact, bit-reproducible float results"
    )
)]

pub mod json;
pub mod registry;
pub mod sink;
pub mod span;

pub use registry::{Counter, Gauge, Histogram, HistogramSummary, LogHistogram, Snapshot};
pub use sink::{CaptureSink, Event, Field, JsonLinesSink, Sink, StderrSink};
pub use span::{Span, Stopwatch};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Categories of recorded data; bits of the runtime enable mask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// RAII span scopes (timing tree).
    Spans,
    /// Counters, gauges, histograms.
    Metrics,
    /// Structured point events (e.g. one per training epoch).
    Events,
}

impl Category {
    /// This category's bit in the enable mask.
    pub const fn bit(self) -> u8 {
        match self {
            Category::Spans => 1,
            Category::Metrics => 2,
            Category::Events => 4,
        }
    }

    /// Mask with every category enabled.
    pub const ALL: u8 = 7;
}

static MASK: AtomicU8 = AtomicU8::new(0);
static SINK: RwLock<Option<Arc<dyn Sink + Send + Sync>>> = RwLock::new(None);

/// Is recording for `cat` enabled? Constant `false` without the
/// `telemetry` feature; one relaxed atomic load with it.
#[inline(always)]
pub fn enabled(cat: Category) -> bool {
    #[cfg(feature = "telemetry")]
    {
        MASK.load(Ordering::Relaxed) & cat.bit() != 0
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = cat;
        false
    }
}

/// `true` when the crate was built with the `telemetry` feature (i.e.
/// recording *can* be enabled at runtime).
pub const fn compiled_in() -> bool {
    cfg!(feature = "telemetry")
}

/// Install a sink and set the runtime enable mask. Replaces any previous
/// sink (which is flushed first).
pub fn install(sink: Arc<dyn Sink + Send + Sync>, mask: u8) {
    if let Ok(mut s) = SINK.write() {
        if let Some(prev) = s.take() {
            prev.flush();
        }
        *s = Some(sink);
    }
    MASK.store(mask & Category::ALL, Ordering::Relaxed);
}

/// Disable recording and drop the sink (flushing it).
pub fn uninstall() {
    MASK.store(0, Ordering::Relaxed);
    if let Ok(mut s) = SINK.write() {
        if let Some(prev) = s.take() {
            prev.flush();
        }
    }
}

/// Parse the `ALSS_TELEMETRY` environment filter. `None` when unset;
/// `Some(mask)` otherwise (`off`/`0` give 0; `all`/`1`/`on` give
/// [`Category::ALL`]; otherwise a comma-separated subset of
/// `spans`,`metrics`,`events`).
pub fn mask_from_env() -> Option<u8> {
    let raw = std::env::var("ALSS_TELEMETRY").ok()?;
    Some(parse_mask(&raw))
}

/// Parse a filter string (see [`mask_from_env`]).
pub fn parse_mask(raw: &str) -> u8 {
    let raw = raw.trim();
    match raw {
        "" | "0" | "off" | "none" => return 0,
        "1" | "all" | "on" => return Category::ALL,
        _ => {}
    }
    let mut mask = 0;
    for tok in raw.split(',') {
        mask |= match tok.trim() {
            "spans" | "span" => Category::Spans.bit(),
            "metrics" | "metric" => Category::Metrics.bit(),
            "events" | "event" => Category::Events.bit(),
            _ => 0,
        };
    }
    mask
}

/// Install the pretty stderr sink with the mask from `ALSS_TELEMETRY`,
/// if the variable is set and non-zero. Returns the active mask.
pub fn init_from_env() -> u8 {
    let mask = mask_from_env().unwrap_or(0);
    if mask != 0 {
        install(Arc::new(StderrSink), mask);
    }
    mask
}

/// Keeps a binary's sink installed for the lifetime of `main`. On drop it
/// emits a final metrics-registry snapshot and flushes, so a capture
/// always ends with the aggregate counters and histograms.
pub struct TelemetryGuard {
    active: bool,
}

impl TelemetryGuard {
    /// `true` when a sink is installed and the final snapshot will be
    /// emitted on drop.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if self.active {
            emit_snapshot();
            flush();
        }
    }
}

/// Set up telemetry for a binary named `topic`, the one entry point every
/// binary shares. Call it before any instrumented work and keep the guard
/// alive until exit.
///
/// * `capture`: install a JSON-lines file sink at this path; the recording
///   mask comes from `ALSS_TELEMETRY`, defaulting to everything.
/// * Without `capture`, `ALSS_TELEMETRY` alone installs the stderr sink
///   (see [`init_from_env`]).
/// * Built without the `telemetry` feature, the capture path is
///   acknowledged with a warning and ignored: probes are compiled out.
pub fn setup(topic: &str, capture: Option<&str>) -> TelemetryGuard {
    let Some(path) = capture else {
        return TelemetryGuard {
            active: init_from_env() != 0,
        };
    };
    if !compiled_in() {
        progress(
            topic,
            "--telemetry ignored: binary built without --features telemetry",
        );
        return TelemetryGuard { active: false };
    }
    match JsonLinesSink::create(std::path::Path::new(path)) {
        Ok(sink) => {
            install(Arc::new(sink), mask_from_env().unwrap_or(Category::ALL));
            TelemetryGuard { active: true }
        }
        Err(e) => {
            progress(topic, &format!("cannot open {path}: {e}"));
            TelemetryGuard { active: false }
        }
    }
}

/// Route one event to the installed sink (no-op without one).
pub fn emit(event: &Event) {
    if let Ok(guard) = SINK.read() {
        if let Some(sink) = guard.as_ref() {
            sink.emit(event);
        }
    }
}

/// Flush the installed sink.
pub fn flush() {
    if let Ok(guard) = SINK.read() {
        if let Some(sink) = guard.as_ref() {
            sink.flush();
        }
    }
}

/// Counter handle for `name` (no-op when metrics are disabled).
#[inline]
pub fn counter(name: &str) -> Counter {
    if !enabled(Category::Metrics) {
        return Counter::noop();
    }
    registry::global().counter(name)
}

/// Gauge handle for `name` (no-op when metrics are disabled).
#[inline]
pub fn gauge(name: &str) -> Gauge {
    if !enabled(Category::Metrics) {
        return Gauge::noop();
    }
    registry::global().gauge(name)
}

/// Histogram handle for `name` (no-op when metrics are disabled).
#[inline]
pub fn histogram(name: &str) -> Histogram {
    if !enabled(Category::Metrics) {
        return Histogram::noop();
    }
    registry::global().histogram(name)
}

/// Emit a structured point event. The field list is only materialized
/// when events are enabled, so pass-through cost is one branch.
#[inline]
pub fn event(name: &'static str, fields: &[(&str, Field)]) {
    if !enabled(Category::Events) {
        return;
    }
    emit(&Event::Point {
        name,
        fields: fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    });
}

/// Freeze the metrics registry into a snapshot (empty when metrics were
/// never enabled).
pub fn snapshot() -> Snapshot {
    registry::global().snapshot()
}

/// Emit the current registry snapshot as an event through the sink.
pub fn emit_snapshot() {
    emit(&Event::Snapshot(snapshot()));
}

/// Progress reporting: the consistent replacement for ad-hoc `println!`
/// progress lines in the binaries. Always visible — goes to the installed
/// sink when one is present, and to stderr in the standard
/// `[alss:<topic>] <message>` format otherwise (or when the sink asks for
/// an echo, as the JSON-lines sink does).
#[expect(
    clippy::print_stderr,
    reason = "the telemetry stderr escape hatch itself: progress must stay visible with no sink installed"
)]
pub fn progress(topic: &str, message: &str) {
    let ev = Event::Progress {
        topic: topic.to_string(),
        message: message.to_string(),
    };
    let mut echoed = false;
    if let Ok(guard) = SINK.read() {
        if let Some(sink) = guard.as_ref() {
            sink.emit(&ev);
            echoed = sink.prints_progress();
        }
    }
    if !echoed {
        eprintln!("{}", ev.progress_line());
    }
}

/// Lock a mutex, recovering the guard from a poisoned lock (telemetry
/// must never abort the instrumented program).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Support for integration tests that need the *global* sink: installs a
/// capture sink for the duration of a closure, serialized process-wide so
/// concurrently running tests do not steal each other's events.
///
/// Only compiled with the `telemetry` feature (without it nothing is ever
/// recorded, so there is nothing to capture).
#[cfg(feature = "telemetry")]
pub mod test_support {
    use super::*;

    static TEST_GUARD: Mutex<()> = Mutex::new(());

    /// Run `f` with a fresh [`CaptureSink`] installed under `mask`, and
    /// return its result plus everything captured. Note the metrics
    /// registry is process-global and is *not* reset — assert on deltas
    /// or on uniquely named instruments.
    pub fn with_capture<R>(mask: u8, f: impl FnOnce() -> R) -> (R, Vec<Event>) {
        let _serialized = lock_unpoisoned(&TEST_GUARD);
        let sink = Arc::new(CaptureSink::new());
        install(sink.clone(), mask);
        let result = f();
        let events = sink.take();
        uninstall();
        (result, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_parsing() {
        assert_eq!(parse_mask("off"), 0);
        assert_eq!(parse_mask("0"), 0);
        assert_eq!(parse_mask(""), 0);
        assert_eq!(parse_mask("all"), Category::ALL);
        assert_eq!(parse_mask("1"), Category::ALL);
        assert_eq!(parse_mask("spans"), Category::Spans.bit());
        assert_eq!(
            parse_mask("spans,metrics"),
            Category::Spans.bit() | Category::Metrics.bit()
        );
        assert_eq!(parse_mask(" events , spans "), 5);
        assert_eq!(parse_mask("bogus"), 0);
    }

    #[test]
    fn disabled_handles_are_noops() {
        // With no mask set (and regardless of the feature), handles are
        // inert and never touch the registry.
        let c = Counter::noop();
        c.add(5);
        c.inc();
        let g = Gauge::noop();
        g.set(3);
        let h = Histogram::noop();
        h.record(10);
    }

    #[test]
    fn compiled_in_matches_feature() {
        assert_eq!(compiled_in(), cfg!(feature = "telemetry"));
    }
}

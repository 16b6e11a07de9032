//! The workspace's telemetry substrate: a lock-free [`MetricsRegistry`]
//! (counters, gauges, log-scale latency histograms) plus a structured,
//! sequence-numbered [`Event`] stream with pluggable sinks (an in-memory
//! ring buffer and a JSONL file writer).
//!
//! The crate sits below every other `ax-*` crate and has no dependencies,
//! so any layer — the evaluator, the campaign driver, the CLI —
//! can report through the same [`Telemetry`] handle. The handle is
//! designed around one invariant: **disabled telemetry costs one branch**.
//! [`Telemetry::disabled`] carries no allocation and every reporting
//! method returns immediately, so instrumented hot paths are free unless a
//! caller explicitly turned tracing on.
//!
//! # Determinism
//!
//! Events are meant to be *testable*: an event carries a logical `source`
//! (the coordinator, or a deterministic run index — never a thread id) and
//! a per-source sequence number, and [`Telemetry::events`] returns the
//! ring's contents in the canonical `(source, seq)` order. A parallel run
//! that emits per-source event streams identical to a sequential run
//! therefore yields the *same* canonical event list, which is exactly what
//! the campaign determinism tests assert. Wall-clock measurements never go
//! into events — they live in histograms and gauges, which determinism
//! tests exclude.
//!
//! ```
//! use ax_telemetry::{EventKind, Telemetry, SOURCE_COORDINATOR};
//!
//! let t = Telemetry::new();
//! t.counter_add("cache.hits", 3);
//! t.emit(
//!     SOURCE_COORDINATOR,
//!     EventKind::CampaignStart { name: "demo".into(), total_runs: 4 },
//! );
//! assert_eq!(t.events().len(), 1);
//! let snap = t.snapshot().unwrap();
//! assert_eq!(snap.counter("cache.hits"), Some(3));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod metrics;
pub mod sink;

pub use event::{Event, EventKind, SOURCE_COORDINATOR};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sink::{EventSink, JsonlSink, RingBuffer};

use std::sync::{Arc, Mutex};

/// Everything one enabled telemetry handle owns.
struct Inner {
    registry: MetricsRegistry,
    ring: RingBuffer,
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
    /// Next sequence number per event source, grown on demand. Event
    /// emission is scheduler-rate (transitions, not evaluations), so one
    /// mutex is fine; the *metrics* side stays lock-free for hot paths.
    seqs: Mutex<Vec<u64>>,
}

/// A cheap-to-clone, thread-safe telemetry handle.
///
/// Either *disabled* (the default — every method is a no-op costing one
/// branch) or *enabled*: an [`Event`] ring buffer plus optional extra
/// sinks, and a [`MetricsRegistry`]. Clones share the same underlying
/// state, so one handle threaded through a campaign collects everything.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Telemetry(disabled)"),
            Some(inner) => write!(f, "Telemetry(events={})", inner.ring.emitted()),
        }
    }
}

impl Telemetry {
    /// An enabled handle: events go to an in-memory ring buffer (capacity
    /// [`RingBuffer::DEFAULT_CAPACITY`]), metrics to a fresh registry.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                registry: MetricsRegistry::new(),
                ring: RingBuffer::new(RingBuffer::DEFAULT_CAPACITY),
                sinks: Mutex::new(Vec::new()),
                seqs: Mutex::new(Vec::new()),
            })),
        }
    }

    /// An enabled handle whose ring buffer keeps at most `capacity`
    /// events (oldest evicted first) — what a long-lived daemon uses to
    /// bound each job's event memory. Capacity is clamped to at least one.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                registry: MetricsRegistry::new(),
                ring: RingBuffer::new(capacity),
                sinks: Mutex::new(Vec::new()),
                seqs: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The disabled handle — every reporting method is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// `true` when this handle records anything at all.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches an extra [`EventSink`] (e.g. a [`JsonlSink`]). No-op when
    /// disabled.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        if let Some(inner) = &self.inner {
            inner.sinks.lock().expect("sink lock").push(sink);
        }
    }

    /// The metrics registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// Adds `n` to the named counter (registering it on first use).
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter(name).add(n);
        }
    }

    /// Sets the named gauge (registering it on first use).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge(name).set(value);
        }
    }

    /// Records one observation in the named log-scale histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.histogram(name).record(value);
        }
    }

    /// Stamps `kind` with the next sequence number of `source`, records it
    /// in the ring and every attached sink, and returns the stamped event.
    ///
    /// When disabled, nothing is recorded and the returned event carries
    /// sequence number 0 (callers forwarding events to an opted-in
    /// observer still get the typed payload; stable sequence numbers are a
    /// property of *enabled* telemetry).
    pub fn emit(&self, source: u32, kind: EventKind) -> Event {
        match &self.inner {
            None => Event {
                source,
                seq: 0,
                kind,
            },
            Some(inner) => {
                let seq = {
                    let mut seqs = inner.seqs.lock().expect("seq lock");
                    let slot = source as usize;
                    if slot >= seqs.len() {
                        seqs.resize(slot + 1, 0);
                    }
                    let seq = seqs[slot];
                    seqs[slot] += 1;
                    seq
                };
                let event = Event { source, seq, kind };
                inner.ring.push(event.clone());
                for sink in inner.sinks.lock().expect("sink lock").iter() {
                    sink.emit(&event);
                }
                event
            }
        }
    }

    /// The ring buffer's retained events in canonical `(source, seq)`
    /// order — the merge order that makes parallel and sequential runs
    /// comparable. Empty when disabled.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let mut events = inner.ring.drain_copy();
                events.sort_by_key(|e| (e.source, e.seq));
                events
            }
        }
    }

    /// Total events emitted through this handle (including any the ring
    /// has since evicted). 0 when disabled.
    pub fn events_emitted(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.ring.emitted())
    }

    /// Flushes every attached sink (e.g. the JSONL writer's buffer).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in inner.sinks.lock().expect("sink lock").iter() {
                sink.flush();
            }
        }
    }

    /// A point-in-time snapshot of every registered metric, or `None` when
    /// disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_deref().map(|i| i.registry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.counter_add("x", 5);
        t.gauge_set("y", 1.0);
        t.observe("z", 10);
        let e = t.emit(SOURCE_COORDINATOR, EventKind::BracketStart { bracket: 0 });
        assert_eq!(e.seq, 0);
        assert!(t.events().is_empty());
        assert_eq!(t.events_emitted(), 0);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn sequence_numbers_are_per_source() {
        let t = Telemetry::new();
        let e0 = t.emit(SOURCE_COORDINATOR, EventKind::BracketStart { bracket: 0 });
        let e1 = t.emit(7, EventKind::BracketStart { bracket: 1 });
        let e2 = t.emit(SOURCE_COORDINATOR, EventKind::BracketStart { bracket: 2 });
        assert_eq!((e0.seq, e1.seq, e2.seq), (0, 0, 1));
        // Canonical order groups by source, then seq.
        let order: Vec<(u32, u64)> = t.events().iter().map(|e| (e.source, e.seq)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (7, 0)]);
    }

    #[test]
    fn with_capacity_bounds_the_ring_but_counts_everything() {
        let t = Telemetry::with_capacity(2);
        for bracket in 0..5 {
            t.emit(0, EventKind::BracketStart { bracket });
        }
        let kept = t.events();
        assert_eq!(kept.len(), 2, "ring keeps only the newest events");
        assert_eq!(t.events_emitted(), 5, "the emitted count is unbounded");
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new();
        let u = t.clone();
        t.counter_add("shared", 1);
        u.counter_add("shared", 2);
        assert_eq!(t.snapshot().unwrap().counter("shared"), Some(3));
        u.emit(1, EventKind::BracketStart { bracket: 0 });
        assert_eq!(t.events_emitted(), 1);
    }

    #[test]
    fn concurrent_counters_do_not_lose_increments() {
        let t = Telemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        t.counter_add("hot", 1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().unwrap().counter("hot"), Some(8000));
    }
}

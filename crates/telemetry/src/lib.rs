//! The workspace's telemetry substrate: a lock-free [`MetricsRegistry`]
//! (counters, gauges, log-scale latency histograms) behind the
//! [`Telemetry`] handle, and the structured, sequence-numbered [`Event`]s
//! an emitter hands to an [`Observer`] — an in-memory [`RingBuffer`], the
//! JSONL file writer [`JsonlSink`], or any other.
//!
//! The crate sits below every other `ax-*` crate and has no dependencies,
//! so any layer — the evaluator, the campaign driver, the CLI —
//! can report through the same [`Telemetry`] handle. The handle is
//! designed around one invariant: **disabled telemetry costs one branch**.
//! [`Telemetry::disabled`] carries no allocation and every reporting
//! method returns immediately, so instrumented hot paths are free unless a
//! caller explicitly turned metrics on.
//!
//! # Determinism
//!
//! Events are meant to be *testable*: an event carries a logical `source`
//! (the coordinator, or a deterministic run index — never a thread id) and
//! a per-source sequence number its emitter stamps, and
//! [`RingBuffer::events`] returns the retained events in the canonical
//! `(source, seq)` order. A parallel run that emits per-source event
//! streams identical to a sequential run therefore yields the *same*
//! canonical event list, which is exactly what the campaign determinism
//! tests assert. Wall-clock measurements never go into events — they live
//! in histograms and gauges, which determinism tests exclude.
//!
//! ```
//! use ax_telemetry::{Event, EventKind, Observer, RingBuffer, Telemetry, SOURCE_COORDINATOR};
//!
//! let t = Telemetry::new();
//! t.counter_add("cache.hits", 3);
//! assert_eq!(t.snapshot().unwrap().counter("cache.hits"), Some(3));
//!
//! let ring = RingBuffer::new(16);
//! for (source, seq) in [(1, 0), (SOURCE_COORDINATOR, 0), (SOURCE_COORDINATOR, 1)] {
//!     let kind = EventKind::BracketStart { bracket: seq };
//!     ring.on_event(&Event { source, seq, kind });
//! }
//! let order: Vec<(u32, u64)> = ring.events().iter().map(|e| (e.source, e.seq)).collect();
//! assert_eq!(order, [(0, 0), (0, 1), (1, 0)]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod metrics;
pub mod sink;

pub use event::{Event, EventKind, SOURCE_COORDINATOR};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sink::{JsonlSink, Observer, RingBuffer};

use std::sync::Arc;

/// A cheap-to-clone, thread-safe metrics handle.
///
/// Either *disabled* (the default — every method is a no-op costing one
/// branch) or *enabled*: a [`MetricsRegistry`]. Clones share the same
/// registry, so one handle threaded through a campaign collects
/// everything.
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.registry {
            None => write!(f, "Telemetry(disabled)"),
            Some(_) => write!(f, "Telemetry(enabled)"),
        }
    }
}

impl Telemetry {
    /// An enabled handle over a fresh registry.
    pub fn new() -> Self {
        Self {
            registry: Some(Arc::new(MetricsRegistry::new())),
        }
    }

    /// The disabled handle — every reporting method is a no-op.
    pub fn disabled() -> Self {
        Self { registry: None }
    }

    /// `true` when this handle records anything at all.
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The metrics registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_deref()
    }

    /// Adds `n` to the named counter (registering it on first use).
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(registry) = &self.registry {
            registry.counter(name).add(n);
        }
    }

    /// Sets the named gauge (registering it on first use).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(registry) = &self.registry {
            registry.gauge(name).set(value);
        }
    }

    /// Records one observation in the named log-scale histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(registry) = &self.registry {
            registry.histogram(name).record(value);
        }
    }

    /// A point-in-time snapshot of every registered metric, or `None` when
    /// disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.registry.as_deref().map(MetricsRegistry::snapshot)
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
        assert!(t.registry().is_none());
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new();
        let u = t.clone();
        t.counter_add("shared", 1);
        u.counter_add("shared", 2);
        assert_eq!(t.snapshot().unwrap().counter("shared"), Some(3));
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

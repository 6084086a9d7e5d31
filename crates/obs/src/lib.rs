//! # rackfabric-obs
//!
//! The deterministic instrumentation layer of the rackfabric workspace: a
//! metrics registry, lightweight span tracing with Chrome Trace Event
//! export, and the shard/window profiler the windowed engine reports
//! through. It exists to answer "where does the wall-clock time go?" —
//! barrier waits vs window draining vs store I/O — without ever touching
//! what the simulation *computes*.
//!
//! ## The wall-clock / sim-time split
//!
//! Every metric and span in this crate is tagged with a [`TimeDomain`]:
//!
//! * **Wall** — host wall-clock measurements (barrier waits, drain times,
//!   store I/O latency). Non-deterministic by nature; these may appear in
//!   perf artifacts (the `perfbench/` results, trace files) but must
//!   **never** reach job keys, store records, or golden exports.
//! * **Sim** — simulated-time or pure event-count measurements (window
//!   lengths in picoseconds, events per window, mailbox train counts).
//!   Deterministic, but still kept out of result exports: instrumentation
//!   is observability, not output.
//!
//! The split is structural: nothing in the result-export paths reads this
//! crate, and the workspace-level `obs_determinism` test pins that exports
//! are byte-identical with instrumentation on and off.
//!
//! ## Zero cost when disabled
//!
//! All instrumentation is reached through [`Observer`], a pair of optional
//! [`Arc`] handles. A disabled observer ([`Observer::off`],
//! also the `Default`) makes every record call a branch on a `None` that
//! the optimizer folds away — no clock reads, no atomics, no allocation on
//! any hot path.
//!
//! ## Modules
//!
//! * [`metrics`] — counters / gauges / log-bucket histograms behind a named
//!   [`Registry`](metrics::Registry), each tagged with its [`TimeDomain`].
//! * [`trace`] — the bounded [`TraceSink`](trace::TraceSink) collecting
//!   Chrome Trace Event (Perfetto-loadable) JSON.
//! * [`span`] — RAII [`Span`](span::Span) guards recording complete events
//!   into a sink, with correct nesting per lane.
//! * [`profile`] — the [`WindowProfiler`](profile::WindowProfiler) the
//!   conservative-window engine fills: per-shard event counts and drain
//!   time, per-worker barrier waits, window length / events-per-window
//!   histograms.

pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

use std::sync::Arc;

/// Which clock a measurement belongs to (see the crate docs for the rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TimeDomain {
    /// Host wall-clock time: non-deterministic, perf artifacts only.
    Wall,
    /// Simulated time or pure event counts: deterministic, still never
    /// exported with results.
    Sim,
}

impl TimeDomain {
    /// Short lowercase label used in rendered snapshots.
    pub fn label(self) -> &'static str {
        match self {
            TimeDomain::Wall => "wall",
            TimeDomain::Sim => "sim",
        }
    }
}

/// The handle threaded through instrumented subsystems: an optional trace
/// sink plus an optional metrics registry. `Observer::off()` (the default)
/// disables everything at near-zero cost.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    trace: Option<Arc<trace::TraceSink>>,
    registry: Option<Arc<metrics::Registry>>,
}

impl Observer {
    /// The disabled observer: every recording call is a no-op.
    pub fn off() -> Observer {
        Observer::default()
    }

    /// An observer recording into both a fresh trace sink and a fresh
    /// metrics registry.
    pub fn enabled() -> Observer {
        Observer {
            trace: Some(Arc::new(trace::TraceSink::new())),
            registry: Some(Arc::new(metrics::Registry::new())),
        }
    }

    /// Attaches a trace sink, returning the modified observer.
    pub fn with_trace(mut self, sink: Arc<trace::TraceSink>) -> Observer {
        self.trace = Some(sink);
        self
    }

    /// Attaches a metrics registry, returning the modified observer.
    pub fn with_registry(mut self, registry: Arc<metrics::Registry>) -> Observer {
        self.registry = Some(registry);
        self
    }

    /// True when any instrumentation is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.trace.is_some() || self.registry.is_some()
    }

    /// The trace sink, when tracing is enabled.
    #[inline]
    pub fn trace(&self) -> Option<&Arc<trace::TraceSink>> {
        self.trace.as_ref()
    }

    /// The metrics registry, when metrics are enabled.
    #[inline]
    pub fn registry(&self) -> Option<&Arc<metrics::Registry>> {
        self.registry.as_ref()
    }

    /// Opens a span on `lane` (a trace thread/track), recording a complete
    /// event into the sink when the guard drops. Returns a no-op guard when
    /// tracing is disabled.
    #[inline]
    pub fn span(&self, lane: u64, name: &'static str, cat: &'static str) -> span::Span {
        match &self.trace {
            Some(sink) => span::Span::enter(sink.clone(), lane, name, cat),
            None => span::Span::disabled(),
        }
    }

    /// Increments the named wall-domain counter (registering it on first
    /// use). No-op when metrics are disabled.
    #[inline]
    pub fn count(&self, name: &'static str, domain: TimeDomain, delta: u64) {
        if let Some(registry) = &self.registry {
            registry.counter(name, domain).add(delta);
        }
    }

    /// Sets the named gauge (registering it on first use). No-op when
    /// metrics are disabled. Gauges carry instantaneous levels — a
    /// service's queue depth or active-job count — where a counter's
    /// monotonic total would be meaningless.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, domain: TimeDomain, value: i64) {
        if let Some(registry) = &self.registry {
            registry.gauge(name, domain).set(value);
        }
    }

    /// Records one sample into the named histogram (registering it on first
    /// use). No-op when metrics are disabled. This is how a service records
    /// per-request latencies cheaply enough for its hot path.
    #[inline]
    pub fn record(&self, name: &'static str, domain: TimeDomain, value: u64) {
        if let Some(registry) = &self.registry {
            registry.histogram(name, domain).record(value);
        }
    }
}

/// Convenience re-exports for `use rackfabric_obs::prelude::*`.
pub mod prelude {
    pub use crate::metrics::{Counter, Gauge, LogHistogram, Registry};
    pub use crate::profile::{WindowProfile, WindowProfiler};
    pub use crate::span::Span;
    pub use crate::trace::TraceSink;
    pub use crate::{Observer, TimeDomain};
}

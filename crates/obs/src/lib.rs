//! # pvm-obs
//!
//! Structured observability for the parallel view-maintenance engine:
//! trace events, a pluggable [`TraceSink`], a metrics registry, and
//! exporters (JSONL and Chrome `trace_event` timelines, plus Prometheus
//! text exposition for the registry). The bounded [`RingSink`] keeps a
//! fixed-size window of recent events for live lineage introspection.
//!
//! The paper's evaluation is built on *aggregate* cost counters — total
//! workload and busiest-node response time. This crate adds the
//! fine-grained layer those aggregates can't provide: per-delta lifecycle
//! events (`route → probe/index-update → ship → join → view-apply`)
//! carrying method, node, logical step, join key and payload bytes, plus
//! runtime health metrics (barrier waits, inbox depths, SEND fan-out,
//! per-node work share).
//!
//! ## Design constraints
//!
//! * **Zero cost when off.** The default sink is [`NoopSink`] and every
//!   per-delta emission is gated on one relaxed atomic load
//!   ([`Obs::enabled`]). Counted costs (`pvm_types::CostSnapshot`-style
//!   ledgers live elsewhere) are *never* touched by tracing, so enabling
//!   or disabling a sink cannot change a single counted SEND, SEARCH,
//!   FETCH or INSERT — a property the workspace tests assert.
//! * **Deterministic timelines.** Events are stamped with the backend's
//!   *logical step clock* (one tick per `Backend::step` epoch), not
//!   wall-clock time, so the exported timeline is bit-identical across
//!   the sequential and threaded backends.
//! * **Contention-free recording.** [`MemorySink`] keeps one buffer per
//!   node; a node thread only ever locks its own (uncontended) buffer.
//!
//! This crate is deliberately **std-only** so every layer of the engine
//! can depend on it.

mod event;
mod export;
mod metrics;
mod sink;

pub use event::{MethodTag, Phase, TraceEvent, COORD};
pub use export::{chrome_trace, jsonl, prometheus};
pub use metrics::{metric, Counter, Histogram, HistogramSnapshot, MetricsRegistry};
pub use sink::{MemorySink, NoopSink, RingSink, TraceSink};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The shared observability handle of one cluster: the installed sink,
/// the metrics registry, and the logical step clock. One instance per
/// cluster, shared (via `Arc`) with its fabric, transport and backends.
pub struct Obs {
    enabled: AtomicBool,
    sink: RwLock<Arc<dyn TraceSink>>,
    metrics: MetricsRegistry,
    /// Logical step clock: incremented once per backend step (epoch).
    clock: AtomicU64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            enabled: AtomicBool::new(false),
            sink: RwLock::new(Arc::new(NoopSink)),
            metrics: MetricsRegistry::default(),
            clock: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .field("step", &self.now())
            .finish()
    }
}

impl Obs {
    pub fn new() -> Self {
        Obs::default()
    }

    /// Install a recording sink and enable event emission.
    pub fn install(&self, sink: Arc<dyn TraceSink>) {
        *self.sink.write().expect("obs sink lock poisoned") = sink;
        self.enabled.store(true, Ordering::Release);
    }

    /// Cheap gate for per-delta instrumentation: one relaxed atomic load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record `ev` if a sink is installed. Call sites on hot per-delta
    /// paths should check [`Obs::enabled`] first so event construction
    /// (which may allocate for keys) is skipped when tracing is off.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if self.enabled() {
            self.sink.read().expect("obs sink lock poisoned").record(ev);
        }
    }

    /// The metrics registry (always live; counters and histograms are
    /// plain atomics and never affect counted costs).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Current logical step.
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advance the logical clock by one epoch; returns the new step
    /// number (the step that is about to execute). Called exactly once
    /// per backend step so sequential and threaded timelines align.
    pub fn begin_step(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Reserve `n` consecutive logical steps at once and return the first
    /// of them. A pipelined backend runs a whole stage program without
    /// returning to the coordinator between steps, so it claims the
    /// program's step numbers up front; the resulting timeline is
    /// identical to `n` individual [`Obs::begin_step`] calls, keeping
    /// trace timestamps aligned with lockstep execution.
    pub fn begin_steps(&self, n: u64) -> u64 {
        self.clock.fetch_add(n, Ordering::Relaxed) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_emit_is_dropped() {
        let obs = Obs::new();
        assert!(!obs.enabled());
        obs.emit(TraceEvent::instant(Phase::Send, 0, 1));
        let sink = Arc::new(MemorySink::new(2));
        obs.install(sink.clone());
        assert!(obs.enabled());
        obs.emit(TraceEvent::instant(Phase::Send, 0, 1));
        assert_eq!(sink.len(), 1, "only the post-install event is kept");
    }

    #[test]
    fn clock_ticks_monotonically() {
        let obs = Obs::new();
        assert_eq!(obs.now(), 0);
        assert_eq!(obs.begin_step(), 1);
        assert_eq!(obs.begin_step(), 2);
        assert_eq!(obs.now(), 2);
    }

    #[test]
    fn begin_steps_matches_repeated_begin_step() {
        let a = Obs::new();
        let b = Obs::new();
        let first = a.begin_steps(3);
        for i in 0..3 {
            assert_eq!(b.begin_step(), first + i);
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(a.begin_steps(1), a.now());
    }
}

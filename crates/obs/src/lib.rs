//! Observability plane for the LOCAL simulator.
//!
//! The paper's central quantities — graph shattering leaving `O(log n)`-size
//! components (Theorem 3), the live-vertex decay of Theorem 10 Phase 1, the
//! message volume of the round engine — are claims the experiments assert but
//! could not previously *watch happen*. This crate provides the pieces:
//!
//! * [`TraceEvent`] / [`EventData`]: structured events (run lifecycle,
//!   per-round progress, phase spans, recovery attempts, adversary-search
//!   iterations, histograms) with a flat JSON-lines encoding, ordered by
//!   `(trial, seq)`.
//! * [`Trace`]: a per-trial event buffer with a monotonically increasing
//!   sequence number and RAII [`Span`](trace::Span)s carrying monotonic
//!   wall-clock timings.
//! * [`Obs`]: the one handle producers hold over both planes; each event is
//!   stated once and reaches the trace and the metrics alike.
//! * [`TraceSink`]: where completed trials' events go — [`NullSink`],
//!   in-memory [`MemorySink`], or a buffered JSON-lines [`FileSink`].
//! * [`PowHistogram`]: fixed-bin power-of-two histograms with exact serde
//!   round-tripping and quantile estimates (messages per vertex, halt
//!   rounds, component sizes).
//! * [`MetricSet`] / [`MetricsRegistry`]: the metrics plane — typed
//!   counters, gauges, and histograms keyed by the static [`MetricId`]
//!   table, recorded per trial and folded in trial order into one mergeable
//!   [`MetricsDoc`] whose bytes are thread-count-invariant.
//! * [`SpanProfile`] / [`ResourceSample`]: profiling — span events folded
//!   into per-phase self-time/total-time call-path profiles with a
//!   flamegraph-compatible folded export, plus peak-RSS samples.
//! * [`progress`]: stderr progress notes behind `--quiet`.
//!
//! Everything except span timings (`micros` on `span_end` events) and
//! resource samples is deterministic: two runs with the same seeds produce
//! byte-identical traces after [`TraceEvent::scrubbed`] and byte-identical
//! metrics documents, regardless of thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod handle;
mod hist;
mod metrics;
mod profile;
mod progress;
mod sink;
mod trace;

pub use event::{EventData, TraceEvent};
pub use handle::Obs;
pub use hist::PowHistogram;
pub use metrics::{
    MetricDef, MetricId, MetricKind, MetricSet, MetricsDoc, MetricsRegistry, METRICS_SCHEMA,
};
pub use profile::{ProfileEntry, ResourceSample, SpanProfile};
pub use progress::progress;
pub use sink::{read_trace, FileSink, MemorySink, NullSink, TraceReadError, TraceSink};
pub use trace::{Span, Trace};

//! Per-trial event buffers and RAII phase spans.

use crate::event::{EventData, TraceEvent};
use crate::sink::TraceSink;
use std::cell::RefCell;
use std::time::Instant;

/// A per-trial trace buffer.
///
/// Producers reach it through an [`crate::Obs`] handle whose `trace` is
/// `None` on the disabled path — a single branch, no allocation, no virtual
/// call. A trace buffers events in memory, stamped with the trial number and
/// a monotonically increasing per-trial sequence number;
/// the trial harness drains completed buffers into a [`TraceSink`] in trial
/// order, which is what makes traces deterministic and thread-count-invariant.
///
/// Interior mutability (a `RefCell`) keeps `emit` callable through a shared
/// reference. A `Trace` is deliberately not `Sync`: each parallel trial owns
/// its own buffer, and the engine only emits from its single-threaded sweep
/// boundaries.
#[derive(Debug)]
pub struct Trace {
    trial: u64,
    inner: RefCell<Inner>,
}

#[derive(Debug)]
struct Inner {
    seq: u64,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace for one trial.
    pub fn new(trial: u64) -> Self {
        Trace {
            trial,
            inner: RefCell::new(Inner {
                seq: 0,
                events: Vec::new(),
            }),
        }
    }

    /// The trial this trace records.
    pub fn trial(&self) -> u64 {
        self.trial
    }

    /// Append one event, stamping trial and sequence number.
    pub fn emit(&self, data: EventData) {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push(TraceEvent {
            trial: self.trial,
            seq,
            data,
        });
    }

    /// Open a named phase span: a `span_start` event now, and a `span_end`
    /// with the monotonic wall-clock duration when the guard drops.
    pub fn span(&self, name: &str) -> Span<'_> {
        self.emit(EventData::SpanStart { name: name.into() });
        Span {
            trace: self,
            name: name.to_string(),
            started: Instant::now(),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the trace, keeping its events in emission order.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.inner.into_inner().events
    }

    /// Drain every buffered event into `sink`, preserving order.
    pub fn drain_into(&self, sink: &mut dyn TraceSink) {
        for event in self.inner.borrow_mut().events.drain(..) {
            sink.record(&event);
        }
    }
}

/// RAII guard for a phase span; see [`Trace::span`].
#[derive(Debug)]
pub struct Span<'t> {
    trace: &'t Trace,
    name: String,
    started: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.trace.emit(EventData::SpanEnd {
            name: std::mem::take(&mut self.name),
            micros: u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn events_are_stamped_in_sequence() {
        let trace = Trace::new(3);
        trace.emit(EventData::SpanStart { name: "a".into() });
        trace.emit(EventData::SpanStart { name: "b".into() });
        let events = trace.into_events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.trial == 3));
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
    }

    #[test]
    fn spans_nest_and_time() {
        let trace = Trace::new(0);
        {
            let _outer = trace.span("outer");
            let _inner = trace.span("inner");
        }
        let events = trace.into_events();
        let tags: Vec<&str> = events.iter().map(|e| e.data.tag()).collect();
        assert_eq!(tags, ["span_start", "span_start", "span_end", "span_end"]);
        match &events[2].data {
            EventData::SpanEnd { name, .. } => assert_eq!(name, "inner"),
            other => panic!("expected inner span_end, got {other:?}"),
        }
    }

    #[test]
    fn drain_into_empties_the_buffer() {
        let trace = Trace::new(1);
        trace.emit(EventData::SpanStart { name: "x".into() });
        let mut sink = MemorySink::new();
        trace.drain_into(&mut sink);
        assert_eq!(sink.events().len(), 1);
        assert!(trace.is_empty());
    }
}

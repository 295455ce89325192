//! The one observation handle producers hold.

use crate::event::EventData;
use crate::metrics::MetricSet;
use crate::trace::{Span, Trace};

/// Both observation planes of one trial. Producers state each event once
/// through [`Obs::emit`], which appends it to the trace and folds it into
/// the metrics ([`MetricSet::fold`]), so the planes agree by construction.
/// The default handle observes nothing at the cost of one branch per event.
#[derive(Debug, Default, Clone, Copy)]
pub struct Obs<'a> {
    /// The trace buffer events are appended to; `None` traces nothing.
    pub trace: Option<&'a Trace>,
    /// The recorder events are folded into; `None` records nothing.
    pub metrics: Option<&'a MetricSet>,
}

impl<'a> Obs<'a> {
    /// A handle over the given planes.
    pub fn new(trace: Option<&'a Trace>, metrics: Option<&'a MetricSet>) -> Self {
        Obs { trace, metrics }
    }

    /// A handle that traces into `trace` (if any) and records no metrics.
    pub fn traced(trace: Option<&'a Trace>) -> Self {
        Obs::new(trace, None)
    }

    /// Whether either plane is attached.
    pub fn is_on(self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Build the event only if a plane is attached; fold it into the
    /// metrics and append it to the trace.
    pub fn emit(self, event: impl FnOnce() -> EventData) {
        if !self.is_on() {
            return;
        }
        let data = event();
        if let Some(ms) = self.metrics {
            ms.fold(&data);
        }
        if let Some(tr) = self.trace {
            tr.emit(data);
        }
    }

    /// Open a named phase span on the trace, if one is attached (spans fold
    /// into no metric).
    pub fn span(self, name: &str) -> Option<Span<'a>> {
        self.trace.map(|t| t.span(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricId, MetricsRegistry};

    fn recovery(ok: bool) -> EventData {
        EventData::Recovery {
            attempt: 2,
            radius: 2,
            core: 5,
            residue: 9,
            finisher: "greedy".into(),
            ok,
            extra_rounds: 3,
        }
    }

    #[test]
    fn a_detached_handle_never_builds_the_event() {
        Obs::default().emit(|| panic!("no plane is attached"));
        assert!(Obs::default().span("x").is_none());
    }

    #[test]
    fn emit_reaches_both_planes() {
        let trace = Trace::new(4);
        let set = MetricSet::new();
        let obs = Obs::new(Some(&trace), Some(&set));
        obs.emit(|| recovery(false));
        obs.emit(|| recovery(true));
        assert_eq!(trace.len(), 2);
        let mut reg = MetricsRegistry::new();
        reg.absorb(&set);
        assert_eq!(reg.counter(MetricId::RecoveryAttempts), 2);
        assert_eq!(reg.counter(MetricId::RecoveryOk), 1);
        assert_eq!(reg.counter(MetricId::RecoveryFailed), 1);
        assert_eq!(reg.counter(MetricId::RecoveryCore), 10);
        assert_eq!(reg.gauge(MetricId::RecoveryRadiusMax), 2);
    }

    #[test]
    fn metrics_alone_fold_without_a_trace() {
        let set = MetricSet::new();
        Obs::new(None, Some(&set)).emit(|| recovery(true));
        let mut reg = MetricsRegistry::new();
        reg.absorb(&set);
        assert_eq!(reg.counter(MetricId::RecoveryExtraRounds), 3);
        assert!(Obs::new(None, Some(&set)).span("x").is_none());
    }
}

//! Run-wide metrics: typed counters, gauges, and histograms keyed by a
//! static metric-id table.
//!
//! The trace plane records *what happened* event by event; the metrics plane
//! aggregates *how much* — rounds, messages, recovery radii — into one
//! mergeable document. The design mirrors the trace plane's determinism
//! contract: producers record into a per-trial [`MetricSet`] (cheap,
//! single-threaded, `Cell`-based), the harness absorbs each set into an
//! owned [`MetricsRegistry`] **in trial order**, and registries merge
//! associatively, so the aggregate is bit-identical regardless of how many
//! threads executed the trials.
//!
//! Every metric is declared once in [`MetricId::ALL`] with its kind, unit,
//! and the paper quantity it measures; the serialized form is a sparse
//! object (`{"name": value, ...}`) in table order, so two registries with
//! the same contents always render byte-identically.

use crate::event::EventData;
use crate::hist::PowHistogram;
use serde::{DeError, Deserialize, Serialize, Value};
use std::cell::RefCell;

/// How a metric aggregates across trials and merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Sums: totals over trials (messages, rounds, attempts).
    Counter,
    /// Maxima: high-water marks (worst recovery radius, best objective).
    Gauge,
    /// Distributions: [`PowHistogram`]s merged bin-by-bin.
    Histogram,
}

impl MetricKind {
    /// The lowercase tag used in docs and schemas.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One row of the static metric table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The typed id.
    pub id: MetricId,
    /// The stable snake_case name used in serialized documents.
    pub name: &'static str,
    /// How the metric aggregates.
    pub kind: MetricKind,
    /// What one unit of the value means.
    pub unit: &'static str,
    /// The paper quantity the metric measures (see DESIGN.md appendix).
    pub paper: &'static str,
}

macro_rules! metric_table {
    ($(($variant:ident, $name:literal, $kind:ident, $unit:literal, $paper:literal)),* $(,)?) => {
        /// A typed key into the metrics registry.
        ///
        /// Every metric the workspace records is declared here, so documents
        /// from different binaries and versions agree on names and kinds.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum MetricId {
            $(
                #[doc = $paper]
                $variant,
            )*
        }

        impl MetricId {
            /// Every metric, in canonical (serialization) order.
            pub const ALL: &'static [MetricId] = &[$(MetricId::$variant),*];

            /// The static definition row for this id.
            pub fn def(self) -> &'static MetricDef {
                const TABLE: &[MetricDef] = &[$(MetricDef {
                    id: MetricId::$variant,
                    name: $name,
                    kind: MetricKind::$kind,
                    unit: $unit,
                    paper: $paper,
                }),*];
                &TABLE[self as usize]
            }

            /// Look a metric up by its serialized name.
            pub fn from_name(name: &str) -> Option<MetricId> {
                match name {
                    $($name => Some(MetricId::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

metric_table! {
    (EngineRuns, "engine_runs", Counter, "runs",
     "number of simulated LOCAL executions aggregated into this document"),
    (EngineRounds, "engine_rounds", Counter, "rounds",
     "summed maximum halting round — the paper's round complexity, the \
      quantity separating O(log_Δ log n) from Ω(log_Δ n)"),
    (EngineSweeps, "engine_sweeps", Counter, "sweeps",
     "summed engine sweeps executed (budget-cut runs sweep past the last \
      halt)"),
    (EngineMessages, "engine_messages", Counter, "messages",
     "total messages sent — the bandwidth side of the LOCAL model"),
    (EngineHalted, "engine_halted", Counter, "vertices",
     "vertices that halted with an output"),
    (EngineCrashed, "engine_crashed", Counter, "vertices",
     "vertices crash-stopped by fault plans"),
    (EngineCut, "engine_cut", Counter, "vertices",
     "vertices still live when a budget was exhausted"),
    (EngineDropped, "engine_dropped", Counter, "messages",
     "messages dropped by the fault plane"),
    (EngineDelayed, "engine_delayed", Counter, "messages",
     "messages deferred one round by the fault plane"),
    (EngineMessagesPerVertex, "engine_messages_per_vertex", Histogram, "messages",
     "distribution of per-vertex message volume"),
    (EngineHaltRound, "engine_halt_round", Histogram, "rounds",
     "distribution of per-vertex halting rounds — the shattering-time \
      profile behind Theorem 10 Phase 1"),
    (RecoveryAttempts, "recovery_attempts", Counter, "attempts",
     "escalation attempts made by the self-healing subsystem"),
    (RecoveryOk, "recovery_ok", Counter, "attempts",
     "recovery attempts whose spliced labeling passed check_complete"),
    (RecoveryFailed, "recovery_failed", Counter, "attempts",
     "recovery attempts that left violations or breached the budget"),
    (RecoveryCore, "recovery_core", Counter, "vertices",
     "summed damaged-core sizes entering recovery"),
    (RecoveryResidue, "recovery_residue", Counter, "vertices",
     "summed residue sizes (core plus dilation) finishers ran on"),
    (RecoveryExtraRounds, "recovery_extra_rounds", Counter, "rounds",
     "rounds finishers consumed on top of the base runs — the recovery \
      overhead measured against the base round complexity"),
    (RecoveryRadiusMax, "recovery_radius_max", Gauge, "radius",
     "worst escalation radius any recovery needed — the locality of repair"),
    (SearchIterations, "search_iterations", Counter, "iterations",
     "adversary-search iterations executed"),
    (SearchAccepted, "search_accepted", Counter, "iterations",
     "adversary-search iterations whose move was accepted"),
    (SearchEvaluations, "search_evaluations", Counter, "evaluations",
     "fault plans evaluated by the adversary search"),
    (SearchBestObjective, "search_best_objective", Gauge, "objective",
     "best worst-case objective any search restart found"),
}

/// Number of declared metrics.
const COUNT: usize = MetricId::ALL.len();

/// A per-trial metric recorder: a [`MetricsRegistry`] behind a `RefCell`,
/// so producers record through shared references.
///
/// Deliberately **not** `Sync` (like [`crate::Trace`]): each trial owns one,
/// records on a single thread, and the harness absorbs completed sets into
/// a [`MetricsRegistry`] in trial order. Producers reach it through an
/// [`crate::Obs`] handle, which folds every event they emit into the set
/// ([`MetricSet::fold`]); a handle without a set costs one branch per event.
#[derive(Debug, Default)]
pub struct MetricSet(RefCell<MetricsRegistry>);

impl MetricSet {
    /// A fresh, all-zero recorder.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Add `n` to a [`MetricKind::Counter`] metric.
    pub fn add(&self, id: MetricId, n: u64) {
        debug_assert_eq!(id.def().kind, MetricKind::Counter, "{}", id.def().name);
        self.0.borrow_mut().merge_scalar(id, n);
    }

    /// Raise a [`MetricKind::Gauge`] metric to at least `v`.
    pub fn gauge_max(&self, id: MetricId, v: u64) {
        debug_assert_eq!(id.def().kind, MetricKind::Gauge, "{}", id.def().name);
        self.0.borrow_mut().merge_scalar(id, v);
    }

    /// Fold one trace event into the set; see [`MetricsRegistry::fold`].
    pub fn fold(&self, data: &EventData) {
        self.0.borrow_mut().fold(data);
    }
}

/// An owned, mergeable metric aggregate.
///
/// Merging is associative and commutative metric-by-metric (counters add,
/// gauges take the maximum, histograms merge bin-by-bin), so any grouping of
/// per-trial sets — rayon threads, checkpoint resumes —
/// folds to the same registry as a serial pass, and the serialized document
/// is byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsRegistry {
    scalars: [u64; COUNT],
    hists: Vec<(MetricId, PowHistogram)>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            scalars: [0; COUNT],
            hists: Vec::new(),
        }
    }
}

impl MetricsRegistry {
    /// An all-zero registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Fold one completed per-trial recorder into the aggregate.
    pub fn absorb(&mut self, set: &MetricSet) {
        self.merge(&set.0.borrow());
    }

    /// Merge another registry into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for id in MetricId::ALL {
            self.merge_scalar(*id, other.scalars[*id as usize]);
        }
        for (id, h) in &other.hists {
            self.merge_hist(*id, h);
        }
    }

    /// Fold one trace event into the metrics it carries — the one place a
    /// metric is derived from what a run did, so a registry folded from a
    /// trace and one recorded beside it agree. Counters add and gauges take
    /// the maximum, as in [`merge`](Self::merge). DESIGN.md Appendix F
    /// tabulates the fold; run starts, spans and histograms other than the
    /// engine's two carry no metric.
    pub fn fold(&mut self, data: &EventData) {
        use MetricId::*;
        let scalars: &[(MetricId, u64)] = match data {
            EventData::Round {
                dropped, delayed, ..
            } => &[(EngineDropped, *dropped), (EngineDelayed, *delayed)],
            EventData::RunEnd {
                rounds,
                sweeps,
                messages,
                halted,
                crashed,
                cut,
                ..
            } => &[
                (EngineRuns, 1),
                (EngineRounds, u64::from(*rounds)),
                (EngineSweeps, u64::from(*sweeps)),
                (EngineMessages, *messages),
                (EngineHalted, *halted),
                (EngineCrashed, *crashed),
                (EngineCut, *cut),
            ],
            EventData::Recovery {
                radius,
                core,
                residue,
                ok,
                extra_rounds,
                ..
            } => &[
                (RecoveryAttempts, 1),
                (if *ok { RecoveryOk } else { RecoveryFailed }, 1),
                (RecoveryCore, *core),
                (RecoveryResidue, *residue),
                (RecoveryExtraRounds, u64::from(*extra_rounds)),
                (RecoveryRadiusMax, u64::from(*radius)),
            ],
            EventData::SearchIter { best, accepted, .. } => &[
                (SearchIterations, 1),
                (SearchAccepted, u64::from(*accepted)),
                (SearchBestObjective, *best),
            ],
            EventData::Histogram { name, hist } => {
                match name.as_str() {
                    "messages_per_vertex" => self.merge_hist(EngineMessagesPerVertex, hist),
                    "halt_round" => self.merge_hist(EngineHaltRound, hist),
                    _ => {}
                }
                &[]
            }
            EventData::RunStart { .. }
            | EventData::SpanStart { .. }
            | EventData::SpanEnd { .. } => &[],
        };
        for &(id, v) in scalars {
            self.merge_scalar(id, v);
        }
    }

    fn merge_scalar(&mut self, id: MetricId, v: u64) {
        let slot = &mut self.scalars[id as usize];
        match id.def().kind {
            MetricKind::Counter => *slot += v,
            MetricKind::Gauge => *slot = (*slot).max(v),
            MetricKind::Histogram => debug_assert_eq!(v, 0, "{}", id.def().name),
        }
    }

    fn merge_hist(&mut self, id: MetricId, h: &PowHistogram) {
        if h.is_empty() {
            return;
        }
        if let Some((_, mine)) = self.hists.iter_mut().find(|(i, _)| *i == id) {
            mine.merge(h);
        } else {
            self.hists.push((id, h.clone()));
            // Keep table order so serialization never depends on the order
            // histograms were first touched.
            self.hists.sort_by_key(|(i, _)| *i as usize);
        }
    }

    /// The value of a counter metric.
    pub fn counter(&self, id: MetricId) -> u64 {
        debug_assert_eq!(id.def().kind, MetricKind::Counter, "{}", id.def().name);
        self.scalars[id as usize]
    }

    /// The value of a gauge metric.
    pub fn gauge(&self, id: MetricId) -> u64 {
        debug_assert_eq!(id.def().kind, MetricKind::Gauge, "{}", id.def().name);
        self.scalars[id as usize]
    }

    /// The histogram recorded under `id`, if any sample landed in it.
    pub fn histogram(&self, id: MetricId) -> Option<&PowHistogram> {
        debug_assert_eq!(id.def().kind, MetricKind::Histogram, "{}", id.def().name);
        self.hists.iter().find(|(i, _)| *i == id).map(|(_, h)| h)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.scalars.iter().all(|&v| v == 0) && self.hists.is_empty()
    }

    /// The non-zero metrics, in table order, as `(def, value)` where a
    /// histogram's value is its serialized form.
    pub fn nonzero(&self) -> impl Iterator<Item = (&'static MetricDef, Value)> + '_ {
        MetricId::ALL.iter().filter_map(move |id| {
            let def = id.def();
            match def.kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    let v = self.scalars[*id as usize];
                    (v != 0).then_some((def, Value::U64(v)))
                }
                MetricKind::Histogram => self.histogram(*id).map(|h| (def, h.to_value())),
            }
        })
    }
}

impl Serialize for MetricsRegistry {
    fn to_value(&self) -> Value {
        Value::Object(
            self.nonzero()
                .map(|(def, v)| (def.name.to_string(), v))
                .collect(),
        )
    }
}

impl Deserialize for MetricsRegistry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = match v {
            Value::Object(entries) => entries,
            _ => return Err(DeError("expected metrics object".into())),
        };
        let mut reg = MetricsRegistry::new();
        for (name, value) in entries {
            let id = MetricId::from_name(name)
                .ok_or_else(|| DeError(format!("unknown metric `{name}`")))?;
            match id.def().kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    reg.merge_scalar(id, u64::from_value(value)?);
                }
                MetricKind::Histogram => {
                    reg.merge_hist(id, &PowHistogram::from_value(value)?);
                }
            }
        }
        Ok(reg)
    }
}

/// The schema tag every metrics document carries.
pub const METRICS_SCHEMA: &str = "metrics/v1";

/// The canonical metrics document written next to the `--json` envelope.
///
/// Contains only deterministic content: the same sweep produces the same
/// bytes whether it ran serially or under rayon, resumed or not.
/// Nondeterministic observations (wall-clock, RSS) go to
/// a sibling telemetry file instead — see `crates/bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    /// The experiment id (`E13`, …).
    pub experiment: String,
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// The aggregated metrics.
    pub metrics: MetricsRegistry,
}

impl Serialize for MetricsDoc {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".into(), Value::String(METRICS_SCHEMA.into())),
            ("experiment".into(), Value::String(self.experiment.clone())),
            ("mode".into(), Value::String(self.mode.clone())),
            ("metrics".into(), self.metrics.to_value()),
        ])
    }
}

impl Deserialize for MetricsDoc {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let schema = String::from_value(v.field("schema")?)?;
        if schema != METRICS_SCHEMA {
            return Err(DeError(format!(
                "unsupported metrics schema `{schema}` (expected `{METRICS_SCHEMA}`)"
            )));
        }
        Ok(MetricsDoc {
            experiment: String::from_value(v.field("experiment")?)?,
            mode: String::from_value(v.field("mode")?)?,
            metrics: MetricsRegistry::from_value(v.field("metrics")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record `count` samples of `value` into the engine histogram `name`,
    /// the way the engine's `histogram` events do.
    fn observe(set: &MetricSet, name: &str, value: u64, count: u64) {
        let mut hist = PowHistogram::new();
        hist.record_n(value, count);
        set.fold(&EventData::Histogram {
            name: name.into(),
            hist: Box::new(hist),
        });
    }

    fn sample_set(scale: u64) -> MetricSet {
        let set = MetricSet::new();
        set.add(MetricId::EngineRounds, 3 * scale);
        set.add(MetricId::EngineRuns, 1);
        set.gauge_max(MetricId::RecoveryRadiusMax, scale);
        observe(&set, "halt_round", scale, 1);
        observe(&set, "messages_per_vertex", 5, scale);
        set
    }

    #[test]
    fn table_is_consistent() {
        for (i, id) in MetricId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
            assert_eq!(id.def().id, *id);
            assert_eq!(MetricId::from_name(id.def().name), Some(*id));
            assert!(!id.def().unit.is_empty());
            assert!(!id.def().paper.is_empty());
        }
        assert_eq!(MetricId::from_name("no_such_metric"), None);
    }

    #[test]
    fn absorb_aggregates_by_kind() {
        let mut reg = MetricsRegistry::new();
        reg.absorb(&sample_set(2));
        reg.absorb(&sample_set(7));
        assert_eq!(reg.counter(MetricId::EngineRounds), 27);
        assert_eq!(reg.counter(MetricId::EngineRuns), 2);
        assert_eq!(reg.gauge(MetricId::RecoveryRadiusMax), 7);
        let h = reg.histogram(MetricId::EngineHaltRound).unwrap();
        assert_eq!(h.total(), 2);
        let h = reg.histogram(MetricId::EngineMessagesPerVertex).unwrap();
        assert_eq!(h.total(), 9);
        assert!(reg.histogram(MetricId::EngineHaltRound).is_some());
        assert!(MetricsRegistry::new().is_empty());
        assert!(!reg.is_empty());
    }

    #[test]
    fn merge_matches_absorbing_in_sequence() {
        let mut serial = MetricsRegistry::new();
        serial.absorb(&sample_set(1));
        serial.absorb(&sample_set(4));
        let mut a = MetricsRegistry::new();
        a.absorb(&sample_set(1));
        let mut b = MetricsRegistry::new();
        b.absorb(&sample_set(4));
        a.merge(&b);
        assert_eq!(a, serial);
    }

    #[test]
    fn hist_order_is_canonical_regardless_of_touch_order() {
        // Touch the histograms in reverse table order…
        let set = MetricSet::new();
        observe(&set, "halt_round", 1, 1);
        observe(&set, "messages_per_vertex", 1, 1);
        let mut a = MetricsRegistry::new();
        a.absorb(&set);
        // …and in table order; the serialized bytes must agree.
        let set = MetricSet::new();
        observe(&set, "messages_per_vertex", 1, 1);
        observe(&set, "halt_round", 1, 1);
        let mut b = MetricsRegistry::new();
        b.absorb(&set);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn registry_round_trips_exactly() {
        let mut reg = MetricsRegistry::new();
        reg.absorb(&sample_set(3));
        let text = serde_json::to_string(&reg).unwrap();
        let back: MetricsRegistry = serde_json::from_str(&text).unwrap();
        assert_eq!(back, reg);
        // Empty registries serialize to an empty object and round-trip.
        let empty = MetricsRegistry::new();
        let text = serde_json::to_string(&empty).unwrap();
        assert_eq!(text, "{}");
        let back: MetricsRegistry = serde_json::from_str(&text).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn unknown_metric_names_are_rejected() {
        assert!(serde_json::from_str::<MetricsRegistry>(r#"{"bogus": 1}"#).is_err());
    }

    #[test]
    fn doc_round_trips_and_pins_schema() {
        let mut metrics = MetricsRegistry::new();
        metrics.absorb(&sample_set(2));
        let doc = MetricsDoc {
            experiment: "E13".into(),
            mode: "quick".into(),
            metrics,
        };
        let text = serde_json::to_string(&doc).unwrap();
        let back: MetricsDoc = serde_json::from_str(&text).unwrap();
        assert_eq!(back, doc);
        let bad = text.replace("metrics/v1", "metrics/v0");
        assert!(serde_json::from_str::<MetricsDoc>(&bad).is_err());
    }
}

//! Structured trace events and their flat JSON-lines encoding.

use crate::hist::PowHistogram;
use serde::{DeError, Deserialize, Serialize, Value};

/// One trace record: the payload plus its position in the trace order.
///
/// Events are totally ordered by `(trial, seq)`; `seq` restarts at 0 for each
/// trial, so traces from parallel trial harnesses are deterministic and
/// thread-count-invariant once flushed in trial order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The trial this event belongs to (0 for untrialed producers).
    pub trial: u64,
    /// Position within the trial's event stream.
    pub seq: u64,
    /// The payload.
    pub data: EventData,
}

/// The payload of a [`TraceEvent`].
///
/// Encoded as a flat JSON object tagged by an `"event"` field; every other
/// field sits at the top level, so `obs_report` and ad-hoc `jq` filters never
/// need to descend.
#[derive(Debug, Clone, PartialEq)]
pub enum EventData {
    /// An engine run began.
    RunStart {
        /// Vertices in the simulated graph.
        n: u64,
        /// Undirected edges in the simulated graph.
        m: u64,
        /// `"det"` (DetLOCAL) or `"rand"` (RandLOCAL).
        mode: String,
        /// The round budget the run executes under.
        max_rounds: u32,
    },
    /// One engine sweep completed.
    Round {
        /// Sweep index (the round whose messages were exchanged).
        round: u32,
        /// Nodes still live *entering* this sweep.
        live: u64,
        /// Messages sent during this sweep.
        messages: u64,
        /// Nodes that halted during this sweep.
        halts: u64,
        /// Nodes crash-stopped at the start of this sweep.
        crashes: u64,
        /// Messages dropped by the fault plane delivering this sweep.
        dropped: u64,
        /// Messages deferred one round by the fault plane this sweep.
        delayed: u64,
        /// Cumulative messages sent so far — the message-budget consumption.
        messages_total: u64,
    },
    /// An engine run finished.
    RunEnd {
        /// Maximum halting round over halted nodes.
        rounds: u32,
        /// Sweeps executed.
        sweeps: u32,
        /// Total messages sent.
        messages: u64,
        /// Nodes that halted with an output.
        halted: u64,
        /// Nodes crash-stopped by the fault plan.
        crashed: u64,
        /// Nodes still live when the budget was exhausted.
        cut: u64,
        /// The budget axis that was breached, if any.
        breach: Option<String>,
    },
    /// A named phase began (trial setup, ColorBidding, Filtering, …).
    SpanStart {
        /// Phase name.
        name: String,
    },
    /// A named phase ended.
    SpanEnd {
        /// Phase name (matches the `SpanStart`).
        name: String,
        /// Monotonic wall-clock duration in microseconds. The only
        /// nondeterministic field in the schema; [`TraceEvent::scrubbed`]
        /// zeroes it.
        micros: u64,
    },
    /// One recovery attempt of the self-healing subsystem.
    Recovery {
        /// Attempt number (1-based; equals the escalation radius used).
        attempt: u32,
        /// Boundary radius of this attempt.
        radius: u32,
        /// Damaged-core size entering the attempt.
        core: u64,
        /// Residue size (core plus dilation) the finisher ran on.
        residue: u64,
        /// Which finisher ran.
        finisher: String,
        /// Whether the spliced labeling passed `check_complete`.
        ok: bool,
        /// Rounds the finisher consumed on top of the base run.
        extra_rounds: u32,
    },
    /// One iteration of the adversary plane's worst-case fault-plan search.
    SearchIter {
        /// Search iteration (0-based within one restart).
        iteration: u64,
        /// Objective value of the move chosen this iteration.
        objective: u64,
        /// Best objective seen so far, after this iteration.
        best: u64,
        /// The chosen move's label (`crash(v3@r1)`, `toggle(e17)`, …),
        /// encoded under the JSON field `"move"`.
        mv: String,
        /// Whether the move was accepted (improved or non-tabu best
        /// candidate) or rejected (all candidates tabu and non-improving).
        accepted: bool,
        /// The tabu tenure in effect (iterations a touched attribute stays
        /// banned).
        tenure: u32,
    },
    /// A named distribution snapshot.
    Histogram {
        /// What was measured (`messages_per_vertex`, `halt_round`,
        /// `shattered_component_size`, …).
        name: String,
        /// The power-of-two histogram (boxed: its fixed bin array would
        /// otherwise dominate the size of every event).
        hist: Box<PowHistogram>,
    },
}

impl EventData {
    /// The `"event"` tag this payload is encoded under.
    pub fn tag(&self) -> &'static str {
        match self {
            EventData::RunStart { .. } => "run_start",
            EventData::Round { .. } => "round",
            EventData::RunEnd { .. } => "run_end",
            EventData::SpanStart { .. } => "span_start",
            EventData::SpanEnd { .. } => "span_end",
            EventData::Recovery { .. } => "recovery",
            EventData::SearchIter { .. } => "search_iter",
            EventData::Histogram { .. } => "histogram",
        }
    }
}

impl TraceEvent {
    /// A copy with every wall-clock field zeroed — the deterministic residue
    /// two same-seed traces are compared on.
    pub fn scrubbed(&self) -> TraceEvent {
        let mut e = self.clone();
        if let EventData::SpanEnd { micros, .. } = &mut e.data {
            *micros = 0;
        }
        e
    }
}

fn field_u64(v: &Value, name: &str) -> Result<u64, DeError> {
    u64::from_value(v.field(name)?)
}

fn field_u32(v: &Value, name: &str) -> Result<u32, DeError> {
    u32::from_value(v.field(name)?)
}

fn field_string(v: &Value, name: &str) -> Result<String, DeError> {
    String::from_value(v.field(name)?)
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("trial".into(), Value::U64(self.trial)),
            ("seq".into(), Value::U64(self.seq)),
            ("event".into(), Value::String(self.data.tag().into())),
        ];
        match &self.data {
            EventData::RunStart {
                n,
                m,
                mode,
                max_rounds,
            } => {
                fields.push(("n".into(), n.to_value()));
                fields.push(("m".into(), m.to_value()));
                fields.push(("mode".into(), mode.to_value()));
                fields.push(("max_rounds".into(), max_rounds.to_value()));
            }
            EventData::Round {
                round,
                live,
                messages,
                halts,
                crashes,
                dropped,
                delayed,
                messages_total,
            } => {
                fields.push(("round".into(), round.to_value()));
                fields.push(("live".into(), live.to_value()));
                fields.push(("messages".into(), messages.to_value()));
                fields.push(("halts".into(), halts.to_value()));
                fields.push(("crashes".into(), crashes.to_value()));
                fields.push(("dropped".into(), dropped.to_value()));
                fields.push(("delayed".into(), delayed.to_value()));
                fields.push(("messages_total".into(), messages_total.to_value()));
            }
            EventData::RunEnd {
                rounds,
                sweeps,
                messages,
                halted,
                crashed,
                cut,
                breach,
            } => {
                fields.push(("rounds".into(), rounds.to_value()));
                fields.push(("sweeps".into(), sweeps.to_value()));
                fields.push(("messages".into(), messages.to_value()));
                fields.push(("halted".into(), halted.to_value()));
                fields.push(("crashed".into(), crashed.to_value()));
                fields.push(("cut".into(), cut.to_value()));
                fields.push(("breach".into(), breach.to_value()));
            }
            EventData::SpanStart { name } => {
                fields.push(("name".into(), name.to_value()));
            }
            EventData::SpanEnd { name, micros } => {
                fields.push(("name".into(), name.to_value()));
                fields.push(("micros".into(), micros.to_value()));
            }
            EventData::Recovery {
                attempt,
                radius,
                core,
                residue,
                finisher,
                ok,
                extra_rounds,
            } => {
                fields.push(("attempt".into(), attempt.to_value()));
                fields.push(("radius".into(), radius.to_value()));
                fields.push(("core".into(), core.to_value()));
                fields.push(("residue".into(), residue.to_value()));
                fields.push(("finisher".into(), finisher.to_value()));
                fields.push(("ok".into(), ok.to_value()));
                fields.push(("extra_rounds".into(), extra_rounds.to_value()));
            }
            EventData::SearchIter {
                iteration,
                objective,
                best,
                mv,
                accepted,
                tenure,
            } => {
                fields.push(("iteration".into(), iteration.to_value()));
                fields.push(("objective".into(), objective.to_value()));
                fields.push(("best".into(), best.to_value()));
                fields.push(("move".into(), mv.to_value()));
                fields.push(("accepted".into(), accepted.to_value()));
                fields.push(("tenure".into(), tenure.to_value()));
            }
            EventData::Histogram { name, hist } => {
                fields.push(("name".into(), name.to_value()));
                // Splice the histogram's fields flat into the event object.
                if let Value::Object(entries) = hist.to_value() {
                    fields.extend(entries);
                }
            }
        }
        Value::Object(fields)
    }
}

impl Deserialize for TraceEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let tag = field_string(v, "event")?;
        let data = match tag.as_str() {
            "run_start" => EventData::RunStart {
                n: field_u64(v, "n")?,
                m: field_u64(v, "m")?,
                mode: field_string(v, "mode")?,
                max_rounds: field_u32(v, "max_rounds")?,
            },
            "round" => EventData::Round {
                round: field_u32(v, "round")?,
                live: field_u64(v, "live")?,
                messages: field_u64(v, "messages")?,
                halts: field_u64(v, "halts")?,
                crashes: field_u64(v, "crashes")?,
                dropped: field_u64(v, "dropped")?,
                delayed: field_u64(v, "delayed")?,
                messages_total: field_u64(v, "messages_total")?,
            },
            "run_end" => EventData::RunEnd {
                rounds: field_u32(v, "rounds")?,
                sweeps: field_u32(v, "sweeps")?,
                messages: field_u64(v, "messages")?,
                halted: field_u64(v, "halted")?,
                crashed: field_u64(v, "crashed")?,
                cut: field_u64(v, "cut")?,
                breach: Option::<String>::from_value(v.field("breach")?)?,
            },
            "span_start" => EventData::SpanStart {
                name: field_string(v, "name")?,
            },
            "span_end" => EventData::SpanEnd {
                name: field_string(v, "name")?,
                micros: field_u64(v, "micros")?,
            },
            "recovery" => EventData::Recovery {
                attempt: field_u32(v, "attempt")?,
                radius: field_u32(v, "radius")?,
                core: field_u64(v, "core")?,
                residue: field_u64(v, "residue")?,
                finisher: field_string(v, "finisher")?,
                ok: bool::from_value(v.field("ok")?)?,
                extra_rounds: field_u32(v, "extra_rounds")?,
            },
            "search_iter" => EventData::SearchIter {
                iteration: field_u64(v, "iteration")?,
                objective: field_u64(v, "objective")?,
                best: field_u64(v, "best")?,
                mv: field_string(v, "move")?,
                accepted: bool::from_value(v.field("accepted")?)?,
                tenure: field_u32(v, "tenure")?,
            },
            "histogram" => EventData::Histogram {
                name: field_string(v, "name")?,
                // The histogram's fields sit flat in the event object.
                hist: Box::new(PowHistogram::from_value(v)?),
            },
            other => return Err(DeError(format!("unknown trace event `{other}`"))),
        };
        Ok(TraceEvent {
            trial: field_u64(v, "trial")?,
            seq: field_u64(v, "seq")?,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        let mut hist = PowHistogram::new();
        hist.record(3);
        hist.record(100);
        vec![
            TraceEvent {
                trial: 0,
                seq: 0,
                data: EventData::RunStart {
                    n: 16,
                    m: 16,
                    mode: "rand".into(),
                    max_rounds: 100,
                },
            },
            TraceEvent {
                trial: 0,
                seq: 1,
                data: EventData::Round {
                    round: 0,
                    live: 16,
                    messages: 32,
                    halts: 4,
                    crashes: 1,
                    dropped: 2,
                    delayed: 0,
                    messages_total: 32,
                },
            },
            TraceEvent {
                trial: 0,
                seq: 2,
                data: EventData::SpanStart {
                    name: "phase1".into(),
                },
            },
            TraceEvent {
                trial: 0,
                seq: 3,
                data: EventData::SpanEnd {
                    name: "phase1".into(),
                    micros: 1234,
                },
            },
            TraceEvent {
                trial: 1,
                seq: 0,
                data: EventData::Recovery {
                    attempt: 1,
                    radius: 1,
                    core: 7,
                    residue: 21,
                    finisher: "greedy-coloring".into(),
                    ok: true,
                    extra_rounds: 3,
                },
            },
            TraceEvent {
                trial: 1,
                seq: 3,
                data: EventData::SearchIter {
                    iteration: 42,
                    objective: 7,
                    best: 9,
                    mv: "crash(v3@r1)".into(),
                    accepted: false,
                    tenure: 8,
                },
            },
            TraceEvent {
                trial: 1,
                seq: 1,
                data: EventData::Histogram {
                    name: "halt_round".into(),
                    hist: Box::new(hist),
                },
            },
            TraceEvent {
                trial: 1,
                seq: 2,
                data: EventData::RunEnd {
                    rounds: 9,
                    sweeps: 10,
                    messages: 320,
                    halted: 15,
                    crashed: 1,
                    cut: 0,
                    breach: Some("rounds".into()),
                },
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for e in samples() {
            let line = serde_json::to_string(&e).unwrap();
            let back: TraceEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(back, e, "{line}");
        }
    }

    #[test]
    fn scrubbing_zeroes_only_span_timings() {
        for e in samples() {
            let s = e.scrubbed();
            match (&e.data, &s.data) {
                (EventData::SpanEnd { micros, .. }, EventData::SpanEnd { micros: m2, .. }) => {
                    let _ = micros;
                    assert_eq!(*m2, 0);
                }
                _ => assert_eq!(s, e),
            }
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let bad = r#"{"trial": 0, "seq": 0, "event": "warp"}"#;
        assert!(serde_json::from_str::<TraceEvent>(bad).is_err());
    }
}

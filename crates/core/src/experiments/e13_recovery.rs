//! E13 — self-healing: recovering faulty runs to complete valid labelings.
//!
//! E12 measures how the paper's algorithms *degrade* under the fault plane;
//! this experiment measures how cheaply the damage is *repaired*. Each trial
//! reruns an E12-style faulty execution, then hands the surviving partial
//! labeling to the generic recovery driver
//! ([`local_algorithms::recover`]): extract the residual subgraph around the
//! damaged core, run a deterministic finisher on it against the frozen
//! boundary, splice, and verify with `check_complete` — escalating the
//! boundary radius 1 → 2 → 3 when the residue is locally infeasible. Every
//! workload-catalog entry ([`crate::workloads`]) heals with its own
//! finisher, through [`Workload::heal`](crate::workloads::Workload::heal).
//!
//! Reported per grid point: the recovery rate (fraction of trials reaching
//! a *complete valid* labeling), the escalation histogram (how many trials
//! needed radius 0/1/2/3 — 0 means the faulty run already validated), and
//! the extra rounds the finisher paid on top of the base run. The sweep is
//! a [`Grid`] run by the generic driver ([`crate::grid`]): workload
//! construction failures become typed error rows, panics are isolated —
//! traced or not — and their messages carried into the JSON, and
//! [`run`] takes a checkpoint for kill-and-resume: per-trial records are
//! integer-only, so a resumed sweep reproduces the uninterrupted JSON
//! byte-for-byte.

use super::e12_resilience::{fault_coords, fault_points};
use crate::checkpoint::Checkpoint;
use crate::grid::{self, Grid, GridOutcome, SweepPoint};
use crate::report::Table;
use crate::trials::TrialOutcome;
use crate::workloads::{workloads, HealRecord, Sizes, WorkloadSlot};
use local_algorithms::RecoveryPolicy;
use local_model::{FaultPlan, FaultSpec};
use local_obs::{MetricsRegistry, Trace, TraceSink};
use serde::Serialize;

pub use super::e12_resilience::OutcomeCounts;

/// Seed of the workload graph generators.
const GRAPH_SEED: u64 = 0xE13F;

/// Sweep configuration. The fault grid deliberately stays inside the range
/// the recovery subsystem promises to heal (drops ≤ 0.2, crashes ≤ 0.1).
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Vertices in the tree-coloring workload (Δ = 16 tree).
    pub tree_n: usize,
    /// Vertices in the sinkless-orientation and edge-coloring base
    /// workloads (3-regular).
    pub sinkless_n: usize,
    /// Vertices in the MIS (4-regular), ruling-set, and defective-coloring
    /// (3-regular) workloads.
    pub mis_n: usize,
    /// Per-directed-edge per-round message-drop probabilities to sweep.
    pub drop_ps: Vec<f64>,
    /// Per-node crash probabilities to sweep.
    pub crash_ps: Vec<f64>,
    /// Trials per grid point.
    pub trials: u64,
    /// Master seed for the trial plan.
    pub master_seed: u64,
    /// Recovery policy (escalation cap and per-attempt budget).
    pub policy: RecoveryPolicy,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            tree_n: 200,
            sinkless_n: 90,
            mis_n: 120,
            drop_ps: vec![0.0, 0.1, 0.2],
            crash_ps: vec![0.0, 0.05],
            trials: 3,
            master_seed: 0xE13,
            policy: RecoveryPolicy::default(),
        }
    }

    /// The full sweep EXPERIMENTS.md records: the whole E12 grid restricted
    /// to the promised fault range.
    pub fn full() -> Self {
        Config {
            tree_n: 600,
            sinkless_n: 240,
            mis_n: 400,
            drop_ps: vec![0.0, 0.05, 0.1, 0.2],
            crash_ps: vec![0.0, 0.02, 0.1],
            trials: 8,
            master_seed: 0xE13,
            policy: RecoveryPolicy::default(),
        }
    }

    /// The catalog sizes this configuration sweeps.
    fn sizes(&self) -> Sizes {
        Sizes {
            tree_n: self.tree_n,
            sinkless_n: self.sinkless_n,
            mis_n: self.mis_n,
        }
    }
}

/// One measured grid point.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name (a [`crate::workloads::NAMES`] catalog entry).
    pub workload: &'static str,
    /// Message-drop probability of this point.
    pub drop_p: f64,
    /// Node-crash probability of this point.
    pub crash_p: f64,
    /// Trials attempted.
    pub trials: u64,
    /// Trials that panicked (isolated; excluded from the other aggregates).
    pub panicked: u64,
    /// The captured panic payloads, in trial order.
    pub panic_messages: Vec<String>,
    /// Set when the workload's graph generator failed (typed error text).
    pub error: Option<String>,
    /// Trials whose recovery produced a complete valid labeling.
    pub recovered: u64,
    /// `recovered / completed` (1.0 for an empty batch would be vacuous, so
    /// 0 completed trials report 0.0).
    pub recovery_rate: f64,
    /// Escalation histogram: entry `r` counts recovered trials that needed
    /// boundary radius `r` (0 = the faulty run already validated).
    pub escalations: Vec<u64>,
    /// Failure messages of unrecovered trials, in trial order.
    pub failures: Vec<String>,
    /// Per-vertex fates of the base runs, summed over completed trials.
    pub outcomes: OutcomeCounts,
    /// Mean damaged-core size over completed trials.
    pub core_mean: f64,
    /// Mean residue size (core + dilation) over completed trials.
    pub residue_mean: f64,
    /// Mean largest decided round of the base runs.
    pub base_rounds_mean: f64,
    /// Mean extra rounds the finisher paid on top of the base run.
    pub extra_rounds_mean: f64,
    /// Largest extra-round cost observed.
    pub extra_rounds_max: u32,
}

/// The sweep result: measured grid points in workload-major,
/// drop-then-crash order, plus the run-wide engine and recovery metrics.
pub type Outcome13 = GridOutcome<Row>;

impl Outcome13 {
    /// The row of one grid point, if measured.
    pub fn get(&self, workload: &str, drop_p: f64, crash_p: f64) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.drop_p == drop_p && r.crash_p == crash_p)
    }
}

/// The checkpoint scope of one grid point (everything a trial depends on
/// besides its index).
fn scope(cfg: &Config, workload: &str, drop_p: f64, crash_p: f64) -> String {
    format!(
        "e13/{workload}/tree_n={}/sinkless_n={}/mis_n={}/drop={drop_p}/crash={crash_p}/radius={}/seed={}",
        cfg.tree_n, cfg.sinkless_n, cfg.mis_n, cfg.policy.max_radius, cfg.master_seed
    )
}

/// Fold one grid point's trial outcomes into a [`Row`], merging each
/// completed trial's metrics into the sweep-wide registry in trial order.
fn fold_row(
    workload: &'static str,
    drop_p: f64,
    crash_p: f64,
    cfg: &Config,
    outcomes: Vec<TrialOutcome<HealRecord>>,
    metrics: &mut MetricsRegistry,
) -> Row {
    let mut panicked = 0u64;
    let mut panic_messages = Vec::new();
    let mut recovered = 0u64;
    let mut completed = 0u64;
    let mut escalations = vec![0u64; cfg.policy.max_radius as usize + 1];
    let mut failures = Vec::new();
    let mut counts = OutcomeCounts {
        halted: 0,
        crashed: 0,
        cut: 0,
    };
    let mut core_total = 0u64;
    let mut residue_total = 0u64;
    let mut base_rounds_total = 0u64;
    let mut extra_rounds_total = 0u64;
    let mut extra_rounds_max = 0u32;
    for outcome in outcomes {
        match outcome {
            TrialOutcome::Panicked { message } => {
                panicked += 1;
                panic_messages.push(message);
            }
            TrialOutcome::Ok(r) => {
                completed += 1;
                metrics.merge(&r.metrics);
                counts.halted += r.halted as u64;
                counts.crashed += r.crashed as u64;
                counts.cut += r.cut as u64;
                core_total += r.core as u64;
                residue_total += r.residue as u64;
                base_rounds_total += u64::from(r.base_rounds);
                extra_rounds_total += u64::from(r.extra_rounds);
                extra_rounds_max = extra_rounds_max.max(r.extra_rounds);
                if r.recovered {
                    recovered += 1;
                    if let Some(slot) = escalations.get_mut(r.attempts as usize) {
                        *slot += 1;
                    }
                }
                if let Some(f) = r.failure {
                    failures.push(f);
                }
            }
        }
    }
    let mean = |total: u64| {
        if completed == 0 {
            0.0
        } else {
            total as f64 / completed as f64
        }
    };
    Row {
        workload,
        drop_p,
        crash_p,
        trials: cfg.trials,
        panicked,
        panic_messages,
        error: None,
        recovered,
        recovery_rate: if completed == 0 {
            0.0
        } else {
            recovered as f64 / completed as f64
        },
        escalations,
        failures,
        outcomes: counts,
        core_mean: mean(core_total),
        residue_mean: mean(residue_total),
        base_rounds_mean: mean(base_rounds_total),
        extra_rounds_mean: mean(extra_rounds_total),
        extra_rounds_max,
    }
}

/// The sweep's grid (see [`crate::grid`]): E12's workload × drop × crash
/// layout, with zero-trial points for failed workload slots.
pub struct Grid13 {
    cfg: Config,
    slots: Vec<WorkloadSlot>,
    points: Vec<SweepPoint>,
}

impl Grid13 {
    /// Build the workloads and the grid of `cfg`'s sweep.
    pub fn new(cfg: &Config) -> Self {
        let slots = workloads(&cfg.sizes(), GRAPH_SEED);
        let points = fault_points(
            &slots,
            &cfg.drop_ps,
            &cfg.crash_ps,
            cfg.trials,
            |w, d, c| scope(cfg, w, d, c),
        );
        Grid13 {
            cfg: cfg.clone(),
            slots,
            points,
        }
    }
}

impl Grid for Grid13 {
    type Record = HealRecord;
    type Row = Row;

    fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    fn master_seed(&self) -> u64 {
        self.cfg.master_seed
    }

    fn trial(&self, point: usize, seed: u64, trace: Option<&Trace>) -> HealRecord {
        let (slot, drop_p, crash_p) = fault_coords(&self.cfg.drop_ps, &self.cfg.crash_ps, point);
        let w = self.slots[slot]
            .as_ref()
            .expect("zero-trial error points run no trials");
        let spec = FaultSpec::none()
            .with_drop(drop_p)
            .with_crash(crash_p, w.crash_window());
        let faults = FaultPlan::sample(w.graph(), &spec, seed);
        w.heal(seed, &faults, &self.cfg.policy, trace)
    }

    fn fold(
        &self,
        point: usize,
        outcomes: Vec<TrialOutcome<HealRecord>>,
        metrics: &mut MetricsRegistry,
    ) -> Row {
        let (slot, drop_p, crash_p) = fault_coords(&self.cfg.drop_ps, &self.cfg.crash_ps, point);
        match &self.slots[slot] {
            Err((name, err)) => Row {
                trials: 0,
                error: Some(err.to_string()),
                ..fold_row(name, drop_p, crash_p, &self.cfg, outcomes, metrics)
            },
            Ok(w) => fold_row(w.name(), drop_p, crash_p, &self.cfg, outcomes, metrics),
        }
    }
}

/// Run the sweep: isolated trials, resumable from `checkpoint`, and with a
/// `sink`, each trial's base engine run emits per-round events and the
/// recovery driver one `recovery` event per escalation attempt
/// (core/residue sizes, finisher, verification verdict), under trial
/// numbers unique across the whole grid.
pub fn run(
    cfg: &Config,
    checkpoint: Option<&Checkpoint>,
    sink: Option<&mut dyn TraceSink>,
) -> Outcome13 {
    grid::run(&Grid13::new(cfg), checkpoint, sink)
}

/// Render the EXPERIMENTS.md table.
pub fn table(out: &Outcome13) -> Table {
    let mut t = Table::new(
        "E13: recovery of faulty runs to complete valid labelings".to_string(),
        &[
            "workload",
            "drop",
            "crash",
            "recovered",
            "rate",
            "escalations",
            "core",
            "extra rounds",
            "panics",
        ],
    );
    for r in &out.rows {
        let (rate, extra) = match &r.error {
            Some(_) => ("error".to_string(), "-".to_string()),
            None => (
                format!("{:.3}", r.recovery_rate),
                format!("{:.1} (max {})", r.extra_rounds_mean, r.extra_rounds_max),
            ),
        };
        let escalations = r
            .escalations
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("/");
        t.push(vec![
            r.workload.to_string(),
            format!("{:.2}", r.drop_p),
            format!("{:.2}", r.crash_p),
            format!("{}/{}", r.recovered, r.trials),
            rate,
            escalations,
            format!("{:.1}", r.core_mean),
            extra,
            r.panicked.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn tiny() -> Config {
        Config {
            tree_n: 80,
            sinkless_n: 60,
            mis_n: 60,
            drop_ps: vec![0.0, 0.2],
            crash_ps: vec![0.0, 0.05],
            trials: 2,
            master_seed: 7,
            policy: RecoveryPolicy::default(),
        }
    }

    #[test]
    fn every_grid_point_recovers_completely() {
        let out = run(&tiny(), None, None);
        assert_eq!(out.rows.len(), NAMES.len() * 2 * 2);
        for r in &out.rows {
            assert!(r.error.is_none(), "{}: {:?}", r.workload, r.error);
            assert_eq!(r.panicked, 0, "{}: no trial should panic", r.workload);
            assert_eq!(
                r.recovery_rate, 1.0,
                "{} drop={} crash={}: failures {:?}",
                r.workload, r.drop_p, r.crash_p, r.failures
            );
            assert_eq!(r.recovered, r.trials);
            assert_eq!(
                r.escalations.iter().sum::<u64>(),
                r.recovered,
                "every recovered trial lands in one histogram bucket"
            );
            assert!(r.failures.is_empty());
        }
        // Faulted grid points actually exercise the finishers: some trial
        // has a nonempty core somewhere.
        assert!(out
            .rows
            .iter()
            .any(|r| (r.drop_p > 0.0 || r.crash_p > 0.0) && r.core_mean > 0.0));
        // A fault-free MIS run validates as-is: no escalation, no extra cost.
        let clean_mis = out.get("mis", 0.0, 0.0).expect("grid point");
        assert_eq!(clean_mis.escalations[0], clean_mis.trials);
        assert_eq!(clean_mis.extra_rounds_mean, 0.0);
        assert!(!table(&out).is_empty());
    }

    #[test]
    fn traced_sweep_emits_recovery_events() {
        use local_obs::{EventData, MemorySink};

        let cfg = tiny();
        let mut sink = MemorySink::new();
        run(&cfg, None, Some(&mut sink));
        let events = sink.into_events();
        // The faulted grid points exercise the recovery driver, and every
        // recovery event names a real finisher and carries core ≤ residue.
        let recoveries: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.data {
                EventData::Recovery {
                    core,
                    residue,
                    finisher,
                    ok,
                    ..
                } => Some((*core, *residue, finisher.clone(), *ok)),
                _ => None,
            })
            .collect();
        assert!(
            !recoveries.is_empty(),
            "faulted trials emit recovery events"
        );
        for (core, residue, finisher, _) in &recoveries {
            assert!(core <= residue, "core {core} ≤ residue {residue}");
            assert!(
                [
                    "greedy-coloring",
                    "sinkless",
                    "luby-restart",
                    "edge-greedy",
                    "ruling-sweep",
                    "defective-greedy"
                ]
                .contains(&finisher.as_str()),
                "unexpected finisher {finisher}"
            );
        }
        assert!(recoveries.iter().any(|(.., ok)| *ok));
        // The recovery driver's span brackets the recovery events.
        assert!(events
            .iter()
            .any(|e| matches!(&e.data, EventData::SpanStart { name } if name == "recover")));
    }

    #[test]
    fn infeasible_generator_parameters_become_error_rows() {
        let cfg = Config {
            sinkless_n: 61, // n·d odd: no 3-regular graph
            ..tiny()
        };
        let out = run(&cfg, None, None);
        assert_eq!(
            out.rows.len(),
            NAMES.len() * 2 * 2,
            "error rows keep the grid shape"
        );
        let infeasible = ["sinkless", "edge-coloring"];
        for r in out.rows.iter().filter(|r| infeasible.contains(&r.workload)) {
            let err = r.error.as_deref().expect("cubic rows carry the error");
            assert!(err.contains("infeasible"), "{err}");
            assert_eq!(r.trials, 0);
        }
        assert!(out
            .rows
            .iter()
            .filter(|r| !infeasible.contains(&r.workload))
            .all(|r| r.error.is_none()));
    }
}

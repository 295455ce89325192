//! E12 — resilience of the paper's algorithms under the fault plane.
//!
//! The paper's model is fault-free; this experiment asks how gracefully its
//! algorithms *degrade* when the model is weakened to crash-stop nodes and
//! lossy/laggy links ([`FaultPlan`]). Every entry of the workload catalog
//! ([`crate::workloads`]) runs under a grid of drop/crash rates — the three
//! legacy cores (`tree-coloring`, `sinkless`, `mis`) plus the extended LCL
//! menu (`edge-coloring`, `ruling-set`, `defective-coloring`).
//!
//! (The full Theorem 10/11 pipelines splice a *centralized* deterministic
//! finisher onto the randomized phase; faults are injected in the
//! message-passing phase, which is the part the model is about — documented
//! as a substitution in EXPERIMENTS.md.)
//!
//! Each surviving output is scored by the matching LCL verifier over the
//! vertices whose checking ball survived
//! ([`Workload::measure`](crate::workloads::Workload::measure)); a silenced
//! vertex makes its whole neighborhood uncheckable and counts *against*
//! validity. The sweep is a [`Grid`] run by the generic driver
//! ([`crate::grid`]): trials are panic-isolated — traced or not — so a
//! panicking configuration is recorded as `panicked` (with its panic
//! messages carried into the JSON report) instead of taking the sweep down,
//! and every aggregate folds in trial order — the emitted JSON is
//! byte-identical regardless of worker-thread count or checkpoint resumes.
//! A workload whose graph generator fails (infeasible parameters, exhausted
//! retries) contributes grid-shaped rows carrying the typed error instead
//! of panicking the sweep.

use crate::checkpoint::Checkpoint;
use crate::grid::{self, Grid, GridOutcome, SweepPoint};
use crate::report::Table;
use crate::trials::TrialOutcome;
use crate::workloads::{workloads, MeasureRecord, Sizes, WorkloadSlot};
use local_model::{FaultPlan, FaultSpec};
use local_obs::{MetricsRegistry, Trace, TraceSink};
use serde::{Deserialize, Serialize};

/// Seed of the workload graph generators.
const GRAPH_SEED: u64 = 0xE12F;

/// Sweep configuration.
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
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            tree_n: 200,
            sinkless_n: 90,
            mis_n: 120,
            drop_ps: vec![0.0, 0.1, 0.3],
            crash_ps: vec![0.0, 0.05],
            trials: 3,
            master_seed: 0xE12,
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            tree_n: 600,
            sinkless_n: 240,
            mis_n: 400,
            drop_ps: vec![0.0, 0.05, 0.1, 0.2, 0.4],
            crash_ps: vec![0.0, 0.02, 0.1],
            trials: 8,
            master_seed: 0xE12,
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

/// Per-vertex fate counts, summed over a grid point's completed trials.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Vertices that decided an output.
    pub halted: u64,
    /// Vertices silenced by the crash schedule.
    pub crashed: u64,
    /// Vertices still undecided when the sweep budget ran out.
    pub cut: u64,
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
    /// The captured panic payloads, in trial order (empty when nothing
    /// panicked).
    pub panic_messages: Vec<String>,
    /// Set when the workload's graph generator failed: the typed
    /// [`GraphError`] rendered as text. Such rows carry zeroed aggregates.
    pub error: Option<String>,
    /// Per-vertex fates summed over completed trials.
    pub outcomes: OutcomeCounts,
    /// Fraction of vertices that were both checkable and acceptable
    /// (see `PartialValidity::validity_rate`), pooled over trials.
    pub validity_rate: f64,
    /// Mean over trials of the largest decided round.
    pub rounds_mean: f64,
    /// Largest decided round observed.
    pub rounds_max: u32,
}

/// The sweep result: measured grid points in workload-major,
/// drop-then-crash order, plus the run-wide engine metrics.
pub type Outcome12 = GridOutcome<Row>;

impl Outcome12 {
    /// The row of one grid point, if measured.
    pub fn get(&self, workload: &str, drop_p: f64, crash_p: f64) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.drop_p == drop_p && r.crash_p == crash_p)
    }
}

/// The checkpoint scope of one grid point: everything a trial's result
/// depends on besides its index, so resuming with changed parameters never
/// reuses stale records.
fn scope(experiment: &str, cfg: &Config, workload: &str, drop_p: f64, crash_p: f64) -> String {
    format!(
        "{experiment}/{workload}/tree_n={}/sinkless_n={}/mis_n={}/drop={drop_p}/crash={crash_p}/seed={}",
        cfg.tree_n, cfg.sinkless_n, cfg.mis_n, cfg.master_seed
    )
}

/// Fold one grid point's trial outcomes into a [`Row`], merging each
/// completed trial's metrics into the sweep-wide registry in trial order.
fn fold_row(
    workload: &'static str,
    drop_p: f64,
    crash_p: f64,
    trials: u64,
    outcomes: Vec<TrialOutcome<MeasureRecord>>,
    metrics: &mut MetricsRegistry,
) -> Row {
    let mut panicked = 0u64;
    let mut panic_messages = Vec::new();
    let mut counts = OutcomeCounts {
        halted: 0,
        crashed: 0,
        cut: 0,
    };
    let mut valid = 0u64;
    let mut scored = 0u64;
    let mut completed = 0u64;
    let mut rounds_total = 0u64;
    let mut rounds_max = 0u32;
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
                valid += r.valid as u64;
                scored += (r.checked + r.skipped) as u64;
                rounds_total += u64::from(r.max_round);
                rounds_max = rounds_max.max(r.max_round);
            }
        }
    }
    Row {
        workload,
        drop_p,
        crash_p,
        trials,
        panicked,
        panic_messages,
        error: None,
        outcomes: counts,
        validity_rate: if scored == 0 {
            0.0
        } else {
            valid as f64 / scored as f64
        },
        rounds_mean: if completed == 0 {
            0.0
        } else {
            rounds_total as f64 / completed as f64
        },
        rounds_max,
    }
}

/// The sweep's grid (see [`crate::grid`]): one point per workload × drop ×
/// crash cell, with failed workload slots contributing zero-trial points
/// that fold to error rows, so the grid shape survives.
pub struct Grid12 {
    cfg: Config,
    slots: Vec<WorkloadSlot>,
    points: Vec<SweepPoint>,
}

impl Grid12 {
    /// Build the workloads and the grid of `cfg`'s sweep.
    pub fn new(cfg: &Config) -> Self {
        let slots = workloads(&cfg.sizes(), GRAPH_SEED);
        let points = fault_points(
            &slots,
            &cfg.drop_ps,
            &cfg.crash_ps,
            cfg.trials,
            |w, d, c| scope("e12", cfg, w, d, c),
        );
        Grid12 {
            cfg: cfg.clone(),
            slots,
            points,
        }
    }
}

/// The points of a workload × drop × crash grid, in workload-major,
/// drop-then-crash order; failed slots get zero trials.
pub(crate) fn fault_points(
    slots: &[WorkloadSlot],
    drop_ps: &[f64],
    crash_ps: &[f64],
    trials: u64,
    scope: impl Fn(&str, f64, f64) -> String,
) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for slot in slots {
        let (name, trials) = match slot {
            Ok(w) => (w.name(), trials),
            Err((name, _)) => (*name, 0),
        };
        for &drop_p in drop_ps {
            for &crash_p in crash_ps {
                points.push(SweepPoint {
                    scope: scope(name, drop_p, crash_p),
                    trials,
                });
            }
        }
    }
    points
}

/// The `(workload slot, drop_p, crash_p)` of point `point` of a
/// [`fault_points`] grid.
pub(crate) fn fault_coords(drop_ps: &[f64], crash_ps: &[f64], point: usize) -> (usize, f64, f64) {
    let per_slot = drop_ps.len() * crash_ps.len();
    let cell = point % per_slot;
    (
        point / per_slot,
        drop_ps[cell / crash_ps.len()],
        crash_ps[cell % crash_ps.len()],
    )
}

impl Grid for Grid12 {
    type Record = MeasureRecord;
    type Row = Row;

    fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    fn master_seed(&self) -> u64 {
        self.cfg.master_seed
    }

    fn trial(&self, point: usize, seed: u64, trace: Option<&Trace>) -> MeasureRecord {
        let (slot, drop_p, crash_p) = fault_coords(&self.cfg.drop_ps, &self.cfg.crash_ps, point);
        let w = self.slots[slot]
            .as_ref()
            .expect("zero-trial error points run no trials");
        let spec = FaultSpec::none()
            .with_drop(drop_p)
            .with_crash(crash_p, w.crash_window());
        let faults = FaultPlan::sample(w.graph(), &spec, seed);
        w.measure(seed, &faults, trace)
    }

    fn fold(
        &self,
        point: usize,
        outcomes: Vec<TrialOutcome<MeasureRecord>>,
        metrics: &mut MetricsRegistry,
    ) -> Row {
        let (slot, drop_p, crash_p) = fault_coords(&self.cfg.drop_ps, &self.cfg.crash_ps, point);
        match &self.slots[slot] {
            // A failed workload folds zero trials and carries the typed
            // error, so the JSON report shows *why* the numbers are missing.
            Err((name, err)) => Row {
                error: Some(err.to_string()),
                ..fold_row(name, drop_p, crash_p, 0, outcomes, metrics)
            },
            Ok(w) => fold_row(
                w.name(),
                drop_p,
                crash_p,
                self.cfg.trials,
                outcomes,
                metrics,
            ),
        }
    }
}

/// Run the sweep: isolated trials, resumable from `checkpoint`, and with a
/// `sink`, each trial's engine run emits its per-round events (live counts,
/// crashes, fault-plane drops and delays) under trial numbers unique across
/// the whole grid.
pub fn run(
    cfg: &Config,
    checkpoint: Option<&Checkpoint>,
    sink: Option<&mut dyn TraceSink>,
) -> Outcome12 {
    grid::run(&Grid12::new(cfg), checkpoint, sink)
}

/// Render the EXPERIMENTS.md table.
pub fn table(out: &Outcome12) -> Table {
    let mut t = Table::new(
        "E12: validity and rounds under message drops and crash-stop nodes".to_string(),
        &[
            "workload", "drop", "crash", "halted", "crashed", "cut", "panics", "validity", "rounds",
        ],
    );
    for r in &out.rows {
        let (validity, rounds) = match &r.error {
            Some(_) => ("error".to_string(), "-".to_string()),
            None => (
                format!("{:.3}", r.validity_rate),
                format!("{:.1}", r.rounds_mean),
            ),
        };
        t.push(vec![
            r.workload.to_string(),
            format!("{:.2}", r.drop_p),
            format!("{:.2}", r.crash_p),
            r.outcomes.halted.to_string(),
            r.outcomes.crashed.to_string(),
            r.outcomes.cut.to_string(),
            r.panicked.to_string(),
            validity,
            rounds,
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
            drop_ps: vec![0.0, 0.5],
            crash_ps: vec![0.0, 0.2],
            trials: 2,
            master_seed: 7,
        }
    }

    #[test]
    fn faults_degrade_validity_but_never_crash_the_sweep() {
        let out = run(&tiny(), None, None);
        assert_eq!(out.rows.len(), NAMES.len() * 2 * 2);
        for r in &out.rows {
            assert_eq!(r.panicked, 0, "{}: no workload should panic", r.workload);
            assert!(
                (0.0..=1.0).contains(&r.validity_rate),
                "{}: rate {}",
                r.workload,
                r.validity_rate
            );
        }
        // Every catalog entry's fault-free baseline dominates its heavily-
        // faulted point.
        for w in NAMES {
            let rate = |d: f64, c: f64| {
                out.get(w, d, c)
                    .unwrap_or_else(|| panic!("{w}: grid point ({d}, {c}) missing"))
                    .validity_rate
            };
            let clean = rate(0.0, 0.0);
            let faulty = rate(0.5, 0.2);
            assert!(
                clean > faulty,
                "{w}: clean {clean} should beat faulty {faulty}"
            );
            assert!(clean > 0.8, "{w}: clean runs should mostly validate");
        }
        // Crashes are actually reported at the crashy grid points.
        assert!(out
            .rows
            .iter()
            .filter(|r| r.crash_p > 0.0)
            .any(|r| r.outcomes.crashed > 0));
        assert!(!table(&out).is_empty());
    }

    #[test]
    fn traced_sweep_emits_engine_events() {
        use local_obs::MemorySink;

        let cfg = tiny();
        let mut sink = MemorySink::new();
        run(&cfg, None, Some(&mut sink));
        let events = sink.into_events();
        // Every grid point contributed cfg.trials engine runs, each with a
        // run_start/run_end pair, under globally unique trial numbers.
        let grid = (NAMES.len() * 2 * 2) as u64;
        let starts = events
            .iter()
            .filter(|e| e.data.tag() == "run_start")
            .count();
        assert_eq!(starts as u64, grid * cfg.trials);
        let trials: std::collections::HashSet<u64> = events.iter().map(|e| e.trial).collect();
        assert_eq!(trials, (0..grid * cfg.trials).collect());
        // Crashy grid points actually show crashes in the round events.
        assert!(events
            .iter()
            .any(|e| matches!(e.data, local_obs::EventData::Round { crashes, .. } if crashes > 0)));
    }

    #[test]
    fn infeasible_generator_parameters_become_error_rows() {
        // n·d odd for the 3-regular generators: both the sinkless workload
        // and the edge-coloring base graph become infeasible.
        let cfg = Config {
            sinkless_n: 61,
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
            assert!(err.contains("infeasible"), "typed error surfaced: {err}");
            assert_eq!(r.trials, 0);
            assert_eq!(r.outcomes.halted, 0);
        }
        for r in out
            .rows
            .iter()
            .filter(|r| !infeasible.contains(&r.workload))
        {
            assert!(
                r.error.is_none(),
                "{}: other workloads still run",
                r.workload
            );
            assert!(r.outcomes.halted > 0);
        }
        // The error reaches the JSON report and the text table.
        let json = serde_json::to_string(&out.rows).expect("rows serialize");
        assert!(json.contains("infeasible"));
        assert!(format!("{}", table(&out)).contains("error"));
    }
}

//! The fifteen registered experiments.
//!
//! Each entry binds an experiment module from `local-separation` to the
//! [`Experiment`] trait: id and claim for the banner, capabilities for the
//! uniform flag check, the resolved configuration, and a `run` that maps
//! the CLI onto the module's single `run` entry point (with the trace sink,
//! and for the E12–E14 grid sweeps the checkpoint too, whose scopes those
//! three sweeps also name from their grid). The binaries in `src/bin/` are
//! one-line shims over this table.

use crate::registry::{Caps, Experiment, ExperimentOutput};
use crate::Cli;
use local_obs::{MetricsRegistry, TraceSink};
use local_separation::experiments::{
    a1_ablation as a1, e10_indistinguishability as e10, e11_dichotomy as e11,
    e12_resilience as e12, e13_recovery as e13, e14_adversary as e14, e1_separation as e1,
    e2_shattering as e2, e3_theorem11 as e3, e4_zero_round as e4, e5_truncation as e5,
    e6_derand as e6, e7_speedup as e7, e8_linial as e8, e9_mis as e9,
};
use local_separation::grid::Grid;
use serde::Serialize;

/// Every registered experiment, in EXPERIMENTS.md order.
pub fn all() -> &'static [&'static dyn Experiment] {
    &[
        &E1Separation,
        &E2Shattering,
        &E3Theorem11,
        &E4ZeroRound,
        &E5Truncation,
        &E6Derand,
        &E7Speedup,
        &E8Linial,
        &E9Mis,
        &E10Indistinguishability,
        &E11Dichotomy,
        &E12Resilience,
        &E13Recovery,
        &E14Adversary,
        &A1Ablation,
    ]
}

/// E1: the exponential separation — deterministic vs randomized tree
/// Δ-coloring rounds.
pub struct E1Separation;

impl E1Separation {
    fn config(cli: &Cli) -> e1::Config {
        let mut cfg = if cli.full {
            e1::Config::full()
        } else {
            e1::Config::quick()
        };
        if let Some(t) = cli.trials {
            cfg.seeds = t;
        }
        cfg
    }
}

impl Experiment for E1Separation {
    fn id(&self) -> &'static str {
        "E1"
    }
    fn claim(&self) -> &'static str {
        "tree Δ-coloring: Det Θ(log_Δ n) vs Rand O(log_Δ log n + log* n)"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.seed.is_some() {
            cli.progress("note: --seed has no effect on E1 (seeds derive from n and Δ)");
        }
        let out = e1::run(&Self::config(cli), sink);
        let mut human = format!("{}\n", e1::table(&out));
        for (delta, model) in &out.det_fit {
            human.push_str(&format!(
                "Δ = {delta}: deterministic peel depth ℓ best fit: {}\n",
                model.name()
            ));
        }
        for (delta, model) in &out.rand_fit {
            human.push_str(&format!(
                "Δ = {delta}: randomized total rounds best fit:    {}\n",
                model.name()
            ));
        }
        ExperimentOutput {
            rows: out.rows.to_value(),
            human,
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E2: Theorem 10 shattering — bad-component sizes vs the Δ⁴·log n bound.
pub struct E2Shattering;

impl E2Shattering {
    fn config(cli: &Cli) -> e2::Config {
        let mut cfg = if cli.full {
            e2::Config::full()
        } else {
            e2::Config::quick()
        };
        if let Some(t) = cli.trials {
            cfg.seeds = t;
        }
        cfg
    }
}

impl Experiment for E2Shattering {
    fn id(&self) -> &'static str {
        "E2"
    }
    fn claim(&self) -> &'static str {
        "bad components after Phase 1 are O(Δ⁴ log n)"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.seed.is_some() {
            cli.progress("note: --seed has no effect on E2 (seeds derive from n)");
        }
        let cfg = Self::config(cli);
        let rows = e2::run(&cfg, sink);
        ExperimentOutput {
            rows: rows.to_value(),
            human: format!("{}\n", e2::table(&rows, cfg.delta)),
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E3: Theorem 11 — per-phase rounds and the shattered set for constant Δ.
pub struct E3Theorem11;

impl E3Theorem11 {
    fn config(cli: &Cli) -> e3::Config {
        let mut cfg = if cli.full {
            e3::Config::full()
        } else {
            e3::Config::quick()
        };
        if let Some(t) = cli.trials {
            cfg.seeds = t;
        }
        cfg
    }
}

impl Experiment for E3Theorem11 {
    fn id(&self) -> &'static str {
        "E3"
    }
    fn claim(&self) -> &'static str {
        "Theorem 11 profile: setup/phase rounds and S components"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.seed.is_some() {
            cli.progress("note: --seed has no effect on E3 (seeds derive from n)");
        }
        let cfg = Self::config(cli);
        let rows = e3::run(&cfg, sink);
        ExperimentOutput {
            rows: rows.to_value(),
            human: format!("{}\n", e3::table(&rows, cfg.delta)),
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E4: the zero-round lower bound — per-edge failure ≥ 1/Δ².
pub struct E4ZeroRound;

impl E4ZeroRound {
    fn config(cli: &Cli) -> e4::Config {
        let mut cfg = if cli.full {
            e4::Config::full()
        } else {
            e4::Config::quick()
        };
        if let Some(t) = cli.trials {
            cfg.trials = t;
        }
        cfg
    }
}

impl Experiment for E4ZeroRound {
    fn id(&self) -> &'static str {
        "E4"
    }
    fn claim(&self) -> &'static str {
        "every 0-round sinkless coloring fails with prob ≥ 1/Δ²"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.seed.is_some() {
            cli.progress("note: --seed has no effect on E4 (seeds derive from the strategy grid)");
        }
        let rows = e4::run(&Self::config(cli), sink);
        ExperimentOutput {
            rows: rows.to_value(),
            human: format!("{}\n", e4::table(&rows)),
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E5: failure decay of truncated sinkless orientation.
pub struct E5Truncation;

impl E5Truncation {
    fn config(cli: &Cli) -> e5::Config {
        let mut cfg = if cli.full {
            e5::Config::full()
        } else {
            e5::Config::quick()
        };
        if let Some(t) = cli.trials {
            cfg.seeds = t;
        }
        cfg
    }
}

impl Experiment for E5Truncation {
    fn id(&self) -> &'static str {
        "E5"
    }
    fn claim(&self) -> &'static str {
        "sink probability vs round budget (round elimination, run forward)"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.seed.is_some() {
            cli.progress("note: --seed has no effect on E5 (seeds derive from the phase grid)");
        }
        let cfg = Self::config(cli);
        let rows = e5::run(&cfg, sink);
        ExperimentOutput {
            rows: rows.to_value(),
            human: format!("{}\n", e5::table(&rows, cfg.delta)),
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E6: Theorem 3 derandomization over exhaustive toy instance spaces.
pub struct E6Derand;

impl E6Derand {
    fn config(cli: &Cli) -> e6::Config {
        if cli.full {
            e6::Config::full()
        } else {
            e6::Config::quick()
        }
    }
}

impl Experiment for E6Derand {
    fn id(&self) -> &'static str {
        "E6"
    }
    fn claim(&self) -> &'static str {
        "Det(n, Δ) ≤ Rand(2^(n²), Δ), machine-verified at toy scale"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.trials.is_some() || cli.seed.is_some() {
            cli.progress("note: --trials/--seed have no effect on E6 (exhaustive enumeration)");
        }
        let rows = e6::run(&Self::config(cli), sink);
        ExperimentOutput {
            rows: rows.to_value(),
            human: format!("{}\n", e6::table(&rows)),
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E7: the Theorem 6 black-box speedup.
pub struct E7Speedup;

impl E7Speedup {
    fn config(cli: &Cli) -> e7::Config {
        if cli.full {
            e7::Config::full()
        } else {
            e7::Config::quick()
        }
    }
}

impl Experiment for E7Speedup {
    fn id(&self) -> &'static str {
        "E7"
    }
    fn claim(&self) -> &'static str {
        "greedy-by-ID coloring: Θ(n) before, O(log* n + poly Δ) after"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.trials.is_some() || cli.seed.is_some() {
            cli.progress("note: --trials/--seed have no effect on E7 (deterministic algorithms)");
        }
        let rows = e7::run(&Self::config(cli), sink);
        ExperimentOutput {
            rows: rows.to_value(),
            human: format!("{}\n", e7::table(&rows)),
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E8: Linial's coloring — Theorem 1 shrink and Theorem 2 convergence.
pub struct E8Linial;

impl E8Linial {
    fn config(cli: &Cli) -> e8::Config {
        if cli.full {
            e8::Config::full()
        } else {
            e8::Config::quick()
        }
    }
}

impl Experiment for E8Linial {
    fn id(&self) -> &'static str {
        "E8"
    }
    fn claim(&self) -> &'static str {
        "one-round palette shrink and O(log* n) convergence to β·Δ²"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.trials.is_some() || cli.seed.is_some() {
            cli.progress("note: --trials/--seed have no effect on E8 (deterministic algorithms)");
        }
        let (shrink, conv) = e8::run(&Self::config(cli), sink);
        ExperimentOutput {
            // Two measured sections, combined into one envelope payload.
            rows: serde::Value::Object(vec![
                ("shrink".to_string(), shrink.to_value()),
                ("convergence".to_string(), conv.to_value()),
            ]),
            human: format!(
                "{}\n{}\n",
                e8::shrink_table(&shrink),
                e8::convergence_table(&conv)
            ),
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E9: the MIS landscape — Luby vs deterministic vs shattering.
pub struct E9Mis;

impl E9Mis {
    fn config(cli: &Cli) -> e9::Config {
        let mut cfg = if cli.full {
            e9::Config::full()
        } else {
            e9::Config::quick()
        };
        if let Some(t) = cli.trials {
            cfg.seeds = t;
        }
        cfg
    }
}

impl Experiment for E9Mis {
    fn id(&self) -> &'static str {
        "E9"
    }
    fn claim(&self) -> &'static str {
        "MIS: Luby Θ(log n) vs Det O(Δ²+log* n) vs Ghaffari shattering"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.seed.is_some() {
            cli.progress("note: --seed has no effect on E9 (seeds derive from n)");
        }
        let cfg = Self::config(cli);
        let out = e9::run(&cfg, sink);
        ExperimentOutput {
            rows: out.rows.to_value(),
            human: format!(
                "{}\nLuby best fit: {}\nDet best fit:  {}\n",
                e9::table(&out, cfg.delta),
                out.luby_fit.name(),
                out.det_fit.name()
            ),
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E10: the indistinguishability principle, counted.
pub struct E10Indistinguishability;

impl E10Indistinguishability {
    fn config(cli: &Cli) -> e10::Config {
        if cli.full {
            e10::Config::full()
        } else {
            e10::Config::quick()
        }
    }
}

impl Experiment for E10Indistinguishability {
    fn id(&self) -> &'static str {
        "E10"
    }
    fn claim(&self) -> &'static str {
        "below half the girth, a Δ-regular graph has ONE radius-t view = the tree's"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.trials.is_some() || cli.seed.is_some() {
            cli.progress("note: --trials/--seed have no effect on E10 (exact view census)");
        }
        let cfg = Self::config(cli);
        let (rows, girth) = e10::run(&cfg, sink);
        ExperimentOutput {
            rows: rows.to_value(),
            human: format!("{}\n", e10::table(&rows, cfg.delta, girth)),
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E11: Theorem 7's Δ = 2 dichotomy.
pub struct E11Dichotomy;

impl E11Dichotomy {
    fn config(cli: &Cli) -> e11::Config {
        if cli.full {
            e11::Config::full()
        } else {
            e11::Config::quick()
        }
    }
}

impl Experiment for E11Dichotomy {
    fn id(&self) -> &'static str {
        "E11"
    }
    fn claim(&self) -> &'static str {
        "Δ = 2: every LCL is O(log* n) or Ω(n) — both sides measured"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.trials.is_some() || cli.seed.is_some() {
            cli.progress("note: --trials/--seed have no effect on E11 (deterministic sweeps)");
        }
        let out = e11::run(&Self::config(cli), sink);
        ExperimentOutput {
            rows: out.rows.to_value(),
            human: format!(
                "{}\n3-coloring best fit: {}\n2-coloring best fit: {}\n",
                e11::table(&out),
                out.fast_fit.name(),
                out.slow_fit.name()
            ),
            metrics: MetricsRegistry::default(),
        }
    }
}

/// E12: resilience — validity and rounds under the deterministic fault plane.
pub struct E12Resilience;

impl E12Resilience {
    fn config(cli: &Cli) -> e12::Config {
        let mut cfg = if cli.full {
            e12::Config::full()
        } else {
            e12::Config::quick()
        };
        if let Some(t) = cli.trials {
            cfg.trials = t;
        }
        if let Some(s) = cli.seed {
            cfg.master_seed = s;
        }
        cfg
    }
}

impl Experiment for E12Resilience {
    fn id(&self) -> &'static str {
        "E12"
    }
    fn claim(&self) -> &'static str {
        "graceful degradation under message drops and crash-stop nodes"
    }
    fn caps(&self) -> Caps {
        Caps::TRACE_AND_CHECKPOINT
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        let checkpoint = cli.open_checkpoint();
        let out = e12::run(&Self::config(cli), checkpoint.as_ref(), sink);
        ExperimentOutput {
            rows: out.rows.to_value(),
            human: format!("{}\n", e12::table(&out)),
            metrics: out.metrics,
        }
    }
    fn checkpoint_scopes(&self, cli: &Cli) -> Option<Vec<String>> {
        Some(scopes(&e12::Grid12::new(&Self::config(cli))))
    }
}

/// E13: self-healing — recovering faulty runs to complete valid labelings.
pub struct E13Recovery;

impl E13Recovery {
    fn config(cli: &Cli) -> e13::Config {
        let mut cfg = if cli.full {
            e13::Config::full()
        } else {
            e13::Config::quick()
        };
        if let Some(t) = cli.trials {
            cfg.trials = t;
        }
        if let Some(s) = cli.seed {
            cfg.master_seed = s;
        }
        cfg
    }
}

impl Experiment for E13Recovery {
    fn id(&self) -> &'static str {
        "E13"
    }
    fn claim(&self) -> &'static str {
        "recovery of faulty runs to complete valid labelings"
    }
    fn caps(&self) -> Caps {
        Caps::TRACE_AND_CHECKPOINT
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        let checkpoint = cli.open_checkpoint();
        let out = e13::run(&Self::config(cli), checkpoint.as_ref(), sink);
        ExperimentOutput {
            rows: out.rows.to_value(),
            human: format!("{}\n", e13::table(&out)),
            metrics: out.metrics,
        }
    }
    fn checkpoint_scopes(&self, cli: &Cli) -> Option<Vec<String>> {
        Some(scopes(&e13::Grid13::new(&Self::config(cli))))
    }
}

/// E14: adversary — worst-case fault plans found by deterministic tabu
/// search.
pub struct E14Adversary;

impl E14Adversary {
    fn config(cli: &Cli) -> e14::Config {
        let mut cfg = if cli.full {
            e14::Config::full()
        } else {
            e14::Config::quick()
        };
        if let Some(t) = cli.trials {
            cfg.restarts = t;
        }
        if let Some(s) = cli.seed {
            cfg.master_seed = s;
        }
        cfg
    }

    /// Pin the best-found plans: one replayable artifact per grid point,
    /// under `results/adversaries/`. Only full sweeps pin (quick search
    /// effort is a smoke test, not a record), and only at the default
    /// restarts/seed (an overridden sweep would silently re-pin different
    /// plans under the same names).
    fn pin_artifacts(cli: &Cli, cfg: &e14::Config, out: &e14::Outcome14) {
        if !cli.full || cli.trials.is_some() || cli.seed.is_some() {
            return;
        }
        let dir = std::path::Path::new("results/adversaries");
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create `{}`: {err}", dir.display());
            std::process::exit(2);
        }
        for row in &out.rows {
            if row.error.is_some() {
                continue;
            }
            let path = dir.join(format!("e14_{}_{}.json", row.workload, row.objective));
            let mut text = e14::artifact_json(cfg, row);
            text.push('\n');
            if let Err(err) = std::fs::write(&path, text) {
                eprintln!("error: cannot write `{}`: {err}", path.display());
                std::process::exit(2);
            }
            cli.progress(&format!("pinned {}", path.display()));
        }
    }
}

impl Experiment for E14Adversary {
    fn id(&self) -> &'static str {
        "E14"
    }
    fn claim(&self) -> &'static str {
        "worst-case fault plans found by adversary search, replayable"
    }
    fn caps(&self) -> Caps {
        Caps::TRACE_AND_CHECKPOINT
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        let cfg = Self::config(cli);
        let checkpoint = cli.open_checkpoint();
        let out = e14::run(&cfg, checkpoint.as_ref(), sink);
        Self::pin_artifacts(cli, &cfg, &out);
        ExperimentOutput {
            rows: out.rows.to_value(),
            human: format!("{}\n", e14::table(&out)),
            metrics: out.metrics,
        }
    }
    fn checkpoint_scopes(&self, cli: &Cli) -> Option<Vec<String>> {
        Some(scopes(&e14::Grid14::new(&Self::config(cli))))
    }
}

/// Every checkpoint scope a sweep grid records under.
fn scopes(grid: &impl Grid) -> Vec<String> {
    grid.points().iter().map(|p| p.scope.clone()).collect()
}

/// A1: ablation of Theorem 10's schedule constants.
pub struct A1Ablation;

impl A1Ablation {
    fn config(cli: &Cli) -> a1::Config {
        let mut cfg = if cli.full {
            a1::Config::full()
        } else {
            a1::Config::quick()
        };
        if let Some(t) = cli.trials {
            cfg.seeds = t;
        }
        cfg
    }
}

impl Experiment for A1Ablation {
    fn id(&self) -> &'static str {
        "A1"
    }
    fn claim(&self) -> &'static str {
        "Theorem 10 constants: growth K and palette margin ablation"
    }
    fn default_config(&self, cli: &Cli) -> serde::Value {
        Self::config(cli).to_value()
    }
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput {
        if cli.seed.is_some() {
            cli.progress("note: --seed has no effect on A1 (seeds derive from the grid)");
        }
        let cfg = Self::config(cli);
        let rows = a1::run(&cfg, sink);
        ExperimentOutput {
            rows: rows.to_value(),
            human: format!("{}\n", a1::table(&rows, cfg.n, cfg.delta)),
            metrics: MetricsRegistry::default(),
        }
    }
}

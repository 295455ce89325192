//! The experiment registry: one trait, one driver, fifteen entries.
//!
//! Every `exp_*` binary is a one-line shim over [`main_for`]. The shared
//! driver owns everything the binaries used to copy-paste: CLI parsing,
//! capability checks (with the rejection text and exit status 2 emitted in
//! exactly one place, [`check_flags`]), the banner, trace-sink plumbing,
//! and the choice between the human tables and the JSON envelope. An
//! [`Experiment`] implementation only declares what it *is* — id, claim,
//! capabilities, resolved configuration — and how to produce rows.

use crate::Cli;
use local_obs::{MetricsRegistry, ResourceSample, TraceSink};
use local_separation::checkpoint::Checkpoint;
use serde::{Serialize, Value};

/// Which optional planes an experiment's run path supports.
///
/// Declared once on the [`Experiment`] impl; the driver turns an
/// unsupported `--trace`/`--checkpoint` into the uniform exit-2 rejection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Caps {
    /// `--trace PATH` streams JSON-lines trace events.
    pub trace: bool,
    /// `--checkpoint PATH` makes the sweep resumable.
    pub checkpoint: bool,
}

impl Caps {
    /// The common shape: traced, but with no resumable trial loop.
    pub const TRACE_ONLY: Caps = Caps {
        trace: true,
        checkpoint: false,
    };
    /// Traced and resumable (E12/E13/E14).
    pub const TRACE_AND_CHECKPOINT: Caps = Caps {
        trace: true,
        checkpoint: true,
    };
}

/// What a run produced: the rows for the JSON envelope and the already
/// formatted human report (tables plus any fit/summary lines, newline
/// terminated — the driver prints it verbatim).
pub struct ExperimentOutput {
    /// The measured rows, exactly as the envelope's `rows` field.
    pub rows: serde::Value,
    /// The human-readable report.
    pub human: String,
    /// The run's merged metrics registry, written to `--metrics PATH` as a
    /// canonical `metrics/v1` document. Experiments without metering leave
    /// it empty (the document then carries an empty `metrics` object).
    pub metrics: MetricsRegistry,
}

/// One registered experiment.
pub trait Experiment: Sync {
    /// Identifier (`"E1"`, …, `"A1"`), as printed in banners and envelopes.
    fn id(&self) -> &'static str;

    /// The one-line claim under test, printed in the banner.
    fn claim(&self) -> &'static str;

    /// Which optional planes [`Experiment::run`] honours.
    fn caps(&self) -> Caps {
        Caps::TRACE_ONLY
    }

    /// The resolved configuration for this command line (`--full`,
    /// `--trials`, `--seed` applied), as a value tree for inspection.
    fn default_config(&self, cli: &Cli) -> serde::Value;

    /// Run the sweep. `sink` is `Some` exactly when `--trace` was given
    /// (the driver has already opened the file and checked capabilities).
    fn run(&self, cli: &Cli, sink: Option<&mut dyn TraceSink>) -> ExperimentOutput;

    /// Every checkpoint scope this command line's sweep can record, present
    /// exactly when `caps().checkpoint`. The driver refuses a `--checkpoint`
    /// file that holds any other scope.
    fn checkpoint_scopes(&self, cli: &Cli) -> Option<Vec<String>> {
        let _ = cli;
        None
    }
}

/// The uniform capability check: THE one place that produces rejection
/// text. Pure, so the messages are unit-testable; the driver adds the
/// `error:` prefix and the exit status 2.
///
/// # Errors
///
/// A human-readable message when the command line asks for a plane the
/// experiment does not support or combines planes that exclude each other
/// (`--trace`/`--checkpoint`).
pub fn check_flags(cli: &Cli, id: &str, caps: Caps) -> Result<(), String> {
    if cli.trace.is_some() && !caps.trace {
        return Err(format!(
            "{id} does not support --trace (no traced run path)"
        ));
    }
    if cli.checkpoint.is_some() && !caps.checkpoint {
        return Err(format!(
            "{id} does not support --checkpoint (no resumable trial loop)"
        ));
    }
    if cli.trace.is_some() && cli.checkpoint.is_some() {
        return Err(format!(
            "--trace and --checkpoint are mutually exclusive on {id}"
        ));
    }
    Ok(())
}

/// Run `experiment` under `cli`: capability check, banner, trace plumbing,
/// then either the JSON envelope (stdout) or the human report.
pub fn run_with(experiment: &dyn Experiment, cli: &Cli) {
    if let Err(msg) = check_flags(cli, experiment.id(), experiment.caps()) {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    cli.banner(experiment.id(), experiment.claim());
    // A resumable sweep must fail loudly — not silently recompute — when
    // the checkpoint on disk was written by a different configuration or
    // seed: validate its scopes against the experiment's own before the
    // run opens it for real.
    if let (Some(path), Some(expected)) =
        (cli.checkpoint.as_deref(), experiment.checkpoint_scopes(cli))
    {
        if std::path::Path::new(path).exists() {
            let checked = Checkpoint::open(path).and_then(|ckpt| ckpt.check_scope(&expected));
            if let Err(err) = checked {
                cli.fail(experiment.id(), err.kind(), &err.to_string());
            }
        }
    }
    let mut sink = cli.open_trace();
    let out = experiment.run(cli, sink.as_mut().map(|s| s as &mut dyn TraceSink));
    // The process resource sample (peak/current RSS) rides in the telemetry
    // sibling, or `null` where `/proc/self/status` is unavailable.
    let resource = ResourceSample::capture().map_or(Value::Null, |r| r.to_value());
    let telemetry = vec![("resource".to_string(), resource)];
    cli.emit_metrics(experiment.id(), &out.metrics, telemetry);
    if cli.json {
        cli.emit_json(experiment.id(), &out.rows);
    } else {
        print!("{}", out.human);
    }
}

/// Look up a registered experiment by id.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    crate::experiments::all()
        .iter()
        .copied()
        .find(|e| e.id() == id)
}

/// The whole `main` of an `exp_*` binary: parse the command line and run
/// the registered experiment. Panics on an unregistered id — that is a
/// build error in the shim, not a user mistake.
pub fn main_for(id: &str) {
    let experiment = find(id).unwrap_or_else(|| panic!("experiment `{id}` is not registered"));
    let cli = Cli::parse();
    run_with(experiment, &cli);
}

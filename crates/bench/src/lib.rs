//! Shared scaffolding for the experiment binaries.
//!
//! Every binary parses its command line through [`Cli::parse`]: `--full`
//! runs the EXPERIMENTS.md-scale sweep (without it, a laptop-seconds quick
//! sweep runs), `--json` emits the measured rows as a machine-readable
//! [`TrialReport`] envelope instead of the human tables, and `--trials N` /
//! `--seed N` override the configuration's batch size and master seed where
//! the experiment has those knobs. `--checkpoint PATH` makes sweeps that
//! support it resumable: finished trials are appended to a JSON-lines store
//! as they complete, and a rerun with the same seed and path skips them (a
//! binary without checkpoint support rejects the flag with exit status 2
//! rather than silently dropping resumability). `--trace PATH` streams
//! structured JSON-lines trace events (per-round engine telemetry, phase
//! spans, recovery attempts, histograms) to a file for the experiments that
//! support it — the same reject-with-status-2 contract applies elsewhere —
//! and `--quiet` suppresses progress lines on stderr. Unknown flags and
//! malformed values print the usage and exit nonzero, so a typo never
//! silently runs the default sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod registry;

use local_obs::{FileSink, MetricsDoc, MetricsRegistry};
use local_separation::checkpoint::Checkpoint;
use local_separation::trials::TrialReport;
use serde::{Serialize, Value};

/// Parsed command-line options shared by all `exp_*` binaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cli {
    /// Run the EXPERIMENTS.md-scale sweep instead of the quick one.
    pub full: bool,
    /// Emit the JSON envelope instead of human tables.
    pub json: bool,
    /// Override for the experiment's trials/seeds-per-point knob.
    pub trials: Option<u64>,
    /// Override for the experiment's master seed.
    pub seed: Option<u64>,
    /// Path of the JSON-lines checkpoint store (`--checkpoint`).
    pub checkpoint: Option<String>,
    /// Path of the JSON-lines trace file (`--trace`).
    pub trace: Option<String>,
    /// Path of the canonical metrics document (`--metrics`). The run's
    /// merged [`local_obs::MetricsRegistry`] is written there as a
    /// `metrics/v1` JSON document, with per-run telemetry (the resource
    /// sample) in a `.telemetry.json` sibling so the canonical document
    /// stays byte-identical across thread counts.
    pub metrics: Option<String>,
    /// Suppress progress lines on stderr (`--quiet`).
    pub quiet: bool,
}

/// Why parsing failed (or stopped): carried by [`Cli::try_parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was requested.
    Help,
    /// A real error: unknown flag, missing or malformed value.
    Bad(String),
}

fn usage(program: &str) -> String {
    format!(
        "usage: {program} [--full] [--json] [--quiet] [--trials N] [--seed N] \
         [--checkpoint PATH] [--trace PATH] [--metrics PATH]"
    )
}

impl Cli {
    /// Parse `std::env::args()`, printing usage and exiting the process on
    /// `--help` (status 0) or on any parse error (status 2).
    pub fn parse() -> Cli {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_else(|| "exp".to_string());
        match Cli::try_parse(args) {
            Ok(cli) => cli,
            Err(CliError::Help) => {
                println!("{}", usage(&program));
                std::process::exit(0);
            }
            Err(CliError::Bad(msg)) => {
                eprintln!("error: {msg}");
                eprintln!("{}", usage(&program));
                std::process::exit(2);
            }
        }
    }

    /// Parse an argument list (no program name). Pure, for tests.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on `--help`/`-h`; [`CliError::Bad`] on an unknown
    /// flag or a missing/malformed `--trials`/`--seed` value.
    pub fn try_parse<I>(args: I) -> Result<Cli, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help),
                "--full" => cli.full = true,
                "--json" => cli.json = true,
                "--trials" => cli.trials = Some(parse_count("--trials", args.next())?),
                "--seed" => cli.seed = Some(parse_count("--seed", args.next())?),
                "--checkpoint" => {
                    cli.checkpoint = Some(parse_path("--checkpoint", args.next())?);
                }
                "--trace" => cli.trace = Some(parse_path("--trace", args.next())?),
                "--metrics" => cli.metrics = Some(parse_path("--metrics", args.next())?),
                "--quiet" => cli.quiet = true,
                other => {
                    if let Some(v) = other.strip_prefix("--trials=") {
                        cli.trials = Some(parse_count("--trials", Some(v.to_string()))?);
                    } else if let Some(v) = other.strip_prefix("--seed=") {
                        cli.seed = Some(parse_count("--seed", Some(v.to_string()))?);
                    } else if let Some(v) = other.strip_prefix("--checkpoint=") {
                        cli.checkpoint = Some(parse_path("--checkpoint", Some(v.to_string()))?);
                    } else if let Some(v) = other.strip_prefix("--trace=") {
                        cli.trace = Some(parse_path("--trace", Some(v.to_string()))?);
                    } else if let Some(v) = other.strip_prefix("--metrics=") {
                        cli.metrics = Some(parse_path("--metrics", Some(v.to_string()))?);
                    } else {
                        return Err(CliError::Bad(format!("unknown argument `{other}`")));
                    }
                }
            }
        }
        Ok(cli)
    }

    /// The mode string recorded in JSON reports.
    pub fn mode_name(&self) -> &'static str {
        if self.full {
            "full"
        } else {
            "quick"
        }
    }

    /// Print the standard experiment banner. Under `--json` it goes to
    /// stderr — stdout must carry nothing but the report envelope, but the
    /// banner still orients whoever is watching the terminal.
    pub fn banner(&self, id: &str, claim: &str) {
        let text = format!(
            "=== {id} — {claim} ===\nmode: {}\n",
            if self.full {
                "full"
            } else {
                "quick (pass --full for the EXPERIMENTS.md sweep)"
            }
        );
        if self.json {
            eprintln!("{text}");
        } else {
            println!("{text}");
        }
    }

    /// Open the checkpoint store named by `--checkpoint`, or `None` when the
    /// flag was not given. For binaries whose experiment supports resume.
    ///
    /// Exits with status 2 if the file cannot be opened — a sweep that
    /// cannot persist its progress should not pretend to be resumable.
    pub fn open_checkpoint(&self) -> Option<Checkpoint> {
        let path = self.checkpoint.as_deref()?;
        match Checkpoint::open(path) {
            Ok(ckpt) => Some(ckpt),
            Err(err) => {
                eprintln!("error: cannot open checkpoint `{path}`: {err}");
                std::process::exit(2);
            }
        }
    }

    /// Open the JSON-lines trace sink named by `--trace`, or `None` when the
    /// flag was not given. For binaries whose experiment supports tracing.
    ///
    /// Exits with status 2 if the file cannot be created — a run asked to
    /// record a trace must not silently run untraced.
    pub fn open_trace(&self) -> Option<FileSink> {
        let path = self.trace.as_deref()?;
        match FileSink::create(std::path::Path::new(path)) {
            Ok(sink) => Some(sink),
            Err(err) => {
                eprintln!("error: cannot create trace file `{path}`: {err}");
                std::process::exit(2);
            }
        }
    }

    /// A progress line on stderr, suppressed under `--quiet`.
    pub fn progress(&self, message: &str) {
        local_obs::progress(self.quiet, message);
    }

    /// Write the canonical metrics document to the path named by
    /// `--metrics` (no-op without the flag), plus a `.telemetry.json`
    /// sibling carrying the run's non-deterministic extras (`telemetry`
    /// key/value pairs — the resource sample). Keeping telemetry out of the
    /// canonical document is what lets CI compare the documents of serial
    /// and multi-threaded runs byte-for-byte.
    ///
    /// Exits with status 2 if either file cannot be written — a run asked
    /// to record metrics must not silently drop them.
    pub fn emit_metrics(
        &self,
        experiment: &str,
        registry: &MetricsRegistry,
        telemetry: Vec<(String, Value)>,
    ) {
        let Some(path) = self.metrics.as_deref() else {
            return;
        };
        let doc = MetricsDoc {
            experiment: experiment.to_string(),
            mode: self.mode_name().to_string(),
            metrics: registry.clone(),
        };
        let text = format!(
            "{}\n",
            serde_json::to_string_pretty(&doc).expect("metrics doc serializes infallibly")
        );
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("error: cannot write metrics file `{path}`: {err}");
            std::process::exit(2);
        }
        let mut fields = vec![
            (
                "schema".to_string(),
                Value::String("telemetry/v1".to_string()),
            ),
            (
                "experiment".to_string(),
                Value::String(experiment.to_string()),
            ),
            ("mode".to_string(), Value::String(self.mode_name().into())),
        ];
        fields.extend(telemetry);
        let sibling = telemetry_sibling(path);
        let text = format!(
            "{}\n",
            serde_json::to_string_pretty(&Value::Object(fields))
                .expect("telemetry doc serializes infallibly")
        );
        if let Err(err) = std::fs::write(&sibling, text) {
            eprintln!("error: cannot write telemetry file `{sibling}`: {err}");
            std::process::exit(2);
        }
    }

    /// Print the experiment's measured rows as the standard JSON envelope.
    pub fn emit_json<R: Serialize + ?Sized>(&self, experiment: &str, rows: &R) {
        println!(
            "{}",
            TrialReport {
                experiment,
                mode: self.mode_name(),
                rows,
            }
            .to_json()
        );
    }

    /// Report a typed runtime error and exit with status 2. Under `--json`
    /// the error goes to stdout as a machine-readable envelope (`kind` is a
    /// short tag like `scope_mismatch`), so pipelines see *why* the run
    /// failed instead of an empty stream; the human line always goes to
    /// stderr.
    pub fn fail(&self, experiment: &str, kind: &str, message: &str) -> ! {
        if self.json {
            let value = Value::Object(vec![
                (
                    "experiment".to_string(),
                    Value::String(experiment.to_string()),
                ),
                ("mode".to_string(), Value::String(self.mode_name().into())),
                (
                    "error".to_string(),
                    Value::Object(vec![
                        ("kind".to_string(), Value::String(kind.to_string())),
                        ("message".to_string(), Value::String(message.to_string())),
                    ]),
                ),
            ]);
            println!(
                "{}",
                serde_json::to_string(&value).expect("error envelope serializes")
            );
        }
        eprintln!("error: {message}");
        std::process::exit(2);
    }
}

/// The telemetry sibling of a metrics document path: `foo.json` →
/// `foo.telemetry.json`, anything without the `.json` suffix gets
/// `.telemetry.json` appended.
pub fn telemetry_sibling(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.telemetry.json"),
        None => format!("{path}.telemetry.json"),
    }
}

fn parse_path(flag: &str, value: Option<String>) -> Result<String, CliError> {
    let value = value.ok_or_else(|| CliError::Bad(format!("{flag} requires a path")))?;
    if value.is_empty() {
        return Err(CliError::Bad(format!("{flag} requires a non-empty path")));
    }
    Ok(value)
}

fn parse_count(flag: &str, value: Option<String>) -> Result<u64, CliError> {
    let value = value.ok_or_else(|| CliError::Bad(format!("{flag} requires a value")))?;
    value.parse::<u64>().map_err(|_| {
        CliError::Bad(format!(
            "{flag} expects a non-negative integer, got `{value}`"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        Cli::try_parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults_are_quick_human() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli, Cli::default());
        assert_eq!(cli.mode_name(), "quick");
    }

    #[test]
    fn flags_parse_in_any_order() {
        let cli = parse(&["--json", "--trials", "7", "--full", "--seed=42"]).unwrap();
        assert!(cli.full && cli.json);
        assert_eq!(cli.trials, Some(7));
        assert_eq!(cli.seed, Some(42));
        assert_eq!(cli.mode_name(), "full");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(matches!(parse(&["--fulll"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["extra"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--workers", "2"]), Err(CliError::Bad(_))));
    }

    #[test]
    fn malformed_values_are_errors() {
        assert!(matches!(parse(&["--trials"]), Err(CliError::Bad(_))));
        assert!(matches!(
            parse(&["--trials", "many"]),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(parse(&["--seed", "-3"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--seed=1.5"]), Err(CliError::Bad(_))));
    }

    #[test]
    fn checkpoint_path_parses_in_both_spellings() {
        let cli = parse(&["--checkpoint", "sweep.ckpt"]).unwrap();
        assert_eq!(cli.checkpoint.as_deref(), Some("sweep.ckpt"));
        let cli = parse(&["--checkpoint=out/e13.jsonl", "--json"]).unwrap();
        assert_eq!(cli.checkpoint.as_deref(), Some("out/e13.jsonl"));
        assert!(cli.json);
        assert_eq!(parse(&[]).unwrap().checkpoint, None);
    }

    #[test]
    fn checkpoint_without_a_path_is_an_error() {
        assert!(matches!(parse(&["--checkpoint"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--checkpoint="]), Err(CliError::Bad(_))));
    }

    #[test]
    fn open_checkpoint_absent_is_none() {
        assert!(Cli::default().open_checkpoint().is_none());
    }

    #[test]
    fn trace_path_parses_in_both_spellings() {
        let cli = parse(&["--trace", "run.jsonl"]).unwrap();
        assert_eq!(cli.trace.as_deref(), Some("run.jsonl"));
        let cli = parse(&["--trace=out/e2.jsonl", "--quiet"]).unwrap();
        assert_eq!(cli.trace.as_deref(), Some("out/e2.jsonl"));
        assert!(cli.quiet);
        assert_eq!(parse(&[]).unwrap().trace, None);
        assert!(!parse(&[]).unwrap().quiet);
    }

    #[test]
    fn trace_without_a_path_is_an_error() {
        assert!(matches!(parse(&["--trace"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--trace="]), Err(CliError::Bad(_))));
    }

    #[test]
    fn open_trace_absent_is_none() {
        assert!(Cli::default().open_trace().is_none());
    }

    #[test]
    fn metrics_path_parses_in_both_spellings() {
        let cli = parse(&["--metrics", "m.json"]).unwrap();
        assert_eq!(cli.metrics.as_deref(), Some("m.json"));
        let cli = parse(&["--metrics=out/e13.metrics.json"]).unwrap();
        assert_eq!(cli.metrics.as_deref(), Some("out/e13.metrics.json"));
        assert_eq!(parse(&[]).unwrap().metrics, None);
        assert!(matches!(parse(&["--metrics"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--metrics="]), Err(CliError::Bad(_))));
    }

    #[test]
    fn telemetry_sibling_replaces_the_json_suffix() {
        assert_eq!(telemetry_sibling("m.json"), "m.telemetry.json");
        assert_eq!(
            telemetry_sibling("out/e13.metrics.json"),
            "out/e13.metrics.telemetry.json"
        );
        assert_eq!(telemetry_sibling("metrics"), "metrics.telemetry.json");
    }

    #[test]
    fn emit_metrics_without_the_flag_is_a_no_op() {
        // No path: must not write anywhere or exit.
        Cli::default().emit_metrics("E13", &MetricsRegistry::new(), Vec::new());
    }

    #[test]
    fn help_is_distinguished_from_errors() {
        assert_eq!(parse(&["--help"]), Err(CliError::Help));
        assert_eq!(parse(&["-h"]), Err(CliError::Help));
    }
}

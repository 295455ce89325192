//! Process-level contracts of the shim binaries: `--json` stdout is a clean
//! machine-readable envelope (the banner moves to stderr), bad or
//! unsupported flags exit with status 2 through the shared driver, and
//! malformed input files end in a typed error, never an abort.
//!
//! E6 is the probe binary — its quick sweep is an exhaustive toy-scale
//! enumeration that finishes in milliseconds even unoptimized. E13's quick
//! config at `--trials 1` probes the checkpointed sweeps: 18 grid points, a
//! couple of seconds even unoptimized, and every workload exercised.

use std::path::PathBuf;
use std::process::Command;

fn e6() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exp_e6_derand"))
}

fn e13() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exp_e13_recovery"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-envelope-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// One JSON line nested `depth` arrays deep.
fn nested_line(depth: usize) -> String {
    format!("{}{}\n", "[".repeat(depth), "]".repeat(depth))
}

/// Pipe `--json` stdout straight into the parser: the envelope must be the
/// ONLY thing on stdout, and the banner must have moved to stderr.
#[test]
fn json_stdout_parses_and_banner_goes_to_stderr() {
    let out = e6().arg("--json").output().expect("spawn exp_e6");
    assert!(out.status.success(), "status: {:?}", out.status);

    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let envelope: serde::Value = serde_json::from_str(&stdout).expect("stdout is one JSON value");
    assert_eq!(
        envelope.field("experiment").unwrap().as_str().unwrap(),
        "E6"
    );
    assert_eq!(envelope.field("mode").unwrap().as_str().unwrap(), "quick");
    assert!(matches!(
        envelope.field("rows").unwrap(),
        serde::Value::Array(rows) if !rows.is_empty()
    ));

    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("=== E6"),
        "banner must still appear, on stderr: {stderr:?}"
    );
}

#[test]
fn quiet_json_still_emits_the_envelope() {
    let out = e6().args(["--json", "--quiet"]).output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    serde_json::from_str::<serde::Value>(&stdout).expect("stdout is one JSON value");
}

#[test]
fn unknown_flag_exits_2() {
    let out = e6().arg("--bogus").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown argument `--bogus`"), "{stderr:?}");
}

/// The uniform capability rejection, observed end to end: E6 has no
/// resumable trial loop, so `--checkpoint` must die with the one pinned
/// message and status 2 — and before any sweep output.
#[test]
fn unsupported_checkpoint_exits_2_with_the_pinned_message() {
    let out = e6()
        .args(["--checkpoint", "x.ckpt"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "no sweep output before the rejection"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(
        stderr,
        "error: E6 does not support --checkpoint (no resumable trial loop)\n"
    );
}

/// Every experiment now has a traced run path: `--trace` on a binary that
/// never had one (E6) must produce a non-empty JSON-lines file.
#[test]
fn trace_flag_writes_a_jsonl_file() {
    let dir = std::env::temp_dir().join(format!("e6_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("e6.jsonl");
    let out = e6()
        .args(["--json", "--trace", path.to_str().expect("utf-8 path")])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "status: {:?}", out.status);
    let trace = std::fs::read_to_string(&path).expect("trace file exists");
    assert!(!trace.trim().is_empty(), "trace must not be empty");
    for line in trace.lines() {
        serde_json::from_str::<serde::Value>(line).expect("each trace line is JSON");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint written by a different config/seed must die loudly: exit 2
/// and a typed `scope_mismatch` error in the `--json` envelope, never a
/// silent recompute.
#[test]
fn scope_mismatched_checkpoint_fails_with_typed_json_error() {
    let dir = temp_dir("scope");
    let ckpt = dir.join("e13.ckpt");
    let ckpt_str = ckpt.to_str().expect("utf-8 path");
    let first = e13()
        .args(["--quiet", "--trials", "1", "--checkpoint", ckpt_str])
        .output()
        .expect("spawn first");
    assert!(first.status.success(), "first status: {:?}", first.status);

    let drifted = e13()
        .args([
            "--quiet",
            "--json",
            "--trials",
            "1",
            "--seed",
            "999",
            "--checkpoint",
            ckpt_str,
        ])
        .output()
        .expect("spawn drifted");
    assert_eq!(drifted.status.code(), Some(2), "drift must exit 2");
    let stdout = String::from_utf8(drifted.stdout).expect("utf-8 stdout");
    let envelope: serde::Value = serde_json::from_str(&stdout).expect("stdout is one JSON value");
    let error = envelope.field("error").expect("error field");
    assert_eq!(
        error.field("kind").unwrap().as_str().unwrap(),
        "scope_mismatch"
    );
    assert!(
        error
            .field("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("config or seed drift"),
        "message must explain the drift"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint line nested far deeper than any record is malformed like
/// any other: the store skips it and the sweep completes with the envelope
/// of an uninterrupted run.
#[test]
fn deeply_nested_checkpoint_line_is_skipped() {
    let dir = temp_dir("deep-ckpt");
    let ckpt = dir.join("e13.ckpt");
    std::fs::write(&ckpt, nested_line(50_000)).expect("write checkpoint");
    let args = ["--quiet", "--json", "--trials", "1"];
    let plain = e13().args(args).output().expect("spawn plain");
    assert!(plain.status.success(), "plain status: {:?}", plain.status);
    let resumed = e13()
        .args(args)
        .args(["--checkpoint", ckpt.to_str().expect("utf-8 path")])
        .output()
        .expect("spawn resumed");
    assert!(
        resumed.status.success(),
        "status: {:?}, stderr: {}",
        resumed.status,
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(resumed.stdout, plain.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `obs_report` on a trace with a deeply nested line reports the bad line
/// and exits 2 instead of overflowing its stack.
#[test]
fn obs_report_rejects_a_deeply_nested_trace_line() {
    let dir = temp_dir("deep-trace");
    let trace = dir.join("trace.jsonl");
    std::fs::write(&trace, nested_line(200_000)).expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .arg(&trace)
        .output()
        .expect("spawn obs_report");
    assert_eq!(out.status.code(), Some(2), "status: {:?}", out.status);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.starts_with("error:"), "{stderr:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `obs_report` refuses a trace line that is not JSON — here a number with
/// a leading zero — instead of summarising it; the same line with `0`
/// passes.
#[test]
fn obs_report_rejects_a_number_with_a_leading_zero() {
    let dir = temp_dir("leading-zero");
    let report = |trial: &str| {
        let trace = dir.join(format!("trace-{trial}.jsonl"));
        let line = format!(
            "{{\"trial\": {trial}, \"seq\": 0, \"event\": \"span_start\", \"name\": \"x\"}}\n"
        );
        std::fs::write(&trace, line).expect("write trace");
        Command::new(env!("CARGO_BIN_EXE_obs_report"))
            .arg(&trace)
            .output()
            .expect("spawn obs_report")
    };
    let good = report("0");
    assert!(good.status.success(), "status: {:?}", good.status);
    let out = report("00");
    assert_eq!(out.status.code(), Some(2), "status: {:?}", out.status);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.starts_with("error:"), "{stderr:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

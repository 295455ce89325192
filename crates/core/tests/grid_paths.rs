//! Every execution path of a grid sweep folds to the same bytes.
//!
//! E12, E13 and E14 each state their grid once and reach it four ways: the
//! plain in-process run, the traced run, a run that records every trial to
//! a fresh checkpoint, and a run resumed from a store holding only some of
//! those records. This suite runs all four on tiny configurations,
//! including one with failed workload slots, and pins the rows JSON and the
//! `metrics/v1` document byte-identical across them.

use local_algorithms::RecoveryPolicy;
use local_obs::{MemorySink, MetricsDoc, TraceSink};
use local_separation::checkpoint::Checkpoint;
use local_separation::experiments::{
    e12_resilience as e12, e13_recovery as e13, e14_adversary as e14,
};
use local_separation::grid::GridOutcome;
use serde::{Serialize, Value};

/// One path's output as the bytes the binaries emit: rows JSON and the
/// canonical metrics document.
fn bytes<R: Serialize>(experiment: &str, out: &GridOutcome<R>) -> (String, String) {
    let doc = MetricsDoc {
        experiment: experiment.to_string(),
        mode: "quick".to_string(),
        metrics: out.metrics.clone(),
    };
    (
        serde_json::to_string(&out.rows).expect("rows serialize"),
        serde_json::to_string(&doc).expect("metrics doc serializes"),
    )
}

/// Run one config down all four paths and assert they agree byte-for-byte.
/// `run` is the experiment's public entry point for that config.
fn assert_paths_agree<R: Serialize>(
    label: &str,
    run: impl Fn(Option<&Checkpoint>, Option<&mut dyn TraceSink>) -> GridOutcome<R>,
) {
    let plain = bytes(label, &run(None, None));

    let mut sink = MemorySink::new();
    let traced = bytes(label, &run(None, Some(&mut sink)));
    assert!(!sink.into_events().is_empty(), "{label}: traced run emits");
    assert_eq!(plain, traced, "{label}: tracing changed the output");

    // Record every trial into a fresh store, keep only the even-indexed
    // records, then resume: replayed and fresh trials must fold like an
    // uninterrupted run.
    let path = std::env::temp_dir().join(format!(
        "lcl-grid-paths-{label}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let recorded = {
        let store = Checkpoint::open(&path).expect("open checkpoint");
        bytes(label, &run(Some(&store), None))
    };
    assert_eq!(plain, recorded, "{label}: checkpointing changed the output");
    let journal = std::fs::read_to_string(&path).expect("read checkpoint");
    let kept: String = journal
        .lines()
        .filter(|line| {
            let record: Value = serde_json::from_str(line).expect("checkpoint line parses");
            matches!(record.get("index"), Some(Value::U64(i)) if i % 2 == 0)
        })
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(kept.len() < journal.len(), "{label}: some records dropped");
    std::fs::write(&path, kept).expect("rewrite checkpoint");
    let resumed = {
        let store = Checkpoint::open(&path).expect("reopen checkpoint");
        assert!(!store.is_empty(), "{label}: the store is partly filled");
        bytes(label, &run(Some(&store), None))
    };
    let _ = std::fs::remove_file(&path);
    assert_eq!(plain, resumed, "{label}: resuming changed the output");
}

fn e12_tiny() -> e12::Config {
    e12::Config {
        tree_n: 80,
        sinkless_n: 60,
        mis_n: 60,
        drop_ps: vec![0.0, 0.5],
        crash_ps: vec![0.0, 0.2],
        trials: 3,
        master_seed: 7,
    }
}

fn e13_tiny() -> e13::Config {
    e13::Config {
        tree_n: 80,
        sinkless_n: 60,
        mis_n: 60,
        drop_ps: vec![0.0, 0.2],
        crash_ps: vec![0.0, 0.05],
        trials: 3,
        master_seed: 7,
        policy: RecoveryPolicy::default(),
    }
}

fn e14_tiny() -> e14::Config {
    e14::Config {
        iterations: 3,
        candidates: 2,
        tenure: 2,
        restarts: 2,
        crash_budget: 3,
        drop_budget: 4,
        master_seed: 7,
        policy: RecoveryPolicy::default(),
    }
}

#[test]
fn e12_paths_agree() {
    let cfg = e12_tiny();
    assert_paths_agree("e12", |c, s| e12::run(&cfg, c, s));
}

#[test]
fn e12_paths_agree_with_error_slots() {
    // n·d odd for the 3-regular generators: two catalog slots fail.
    let cfg = e12::Config {
        sinkless_n: 61,
        ..e12_tiny()
    };
    assert_paths_agree("e12-err", |c, s| e12::run(&cfg, c, s));
}

#[test]
fn e13_paths_agree() {
    let cfg = e13_tiny();
    assert_paths_agree("e13", |c, s| e13::run(&cfg, c, s));
}

#[test]
fn e13_paths_agree_with_error_slots() {
    let cfg = e13::Config {
        sinkless_n: 61,
        ..e13_tiny()
    };
    assert_paths_agree("e13-err", |c, s| e13::run(&cfg, c, s));
}

#[test]
fn e14_paths_agree() {
    let cfg = e14_tiny();
    assert_paths_agree("e14", |c, s| e14::run(&cfg, c, s));
}

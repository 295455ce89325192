//! Every execution path of a grid sweep folds to the same bytes.
//!
//! E12, E13 and E14 each state their grid once and reach it four ways: the
//! plain in-process run, the traced run, a checkpointed run resumed from a
//! half-filled store, and the fabric decomposition (every unit through
//! `Sweep::run_unit`, then `grid::fold_merged`). This suite runs all four on
//! tiny configurations, including one with failed workload slots, and pins
//! the rows JSON and the `metrics/v1` document byte-identical across them.

use local_algorithms::RecoveryPolicy;
use local_obs::{MemorySink, MetricsDoc, TraceSink};
use local_separation::checkpoint::Checkpoint;
use local_separation::experiments::{
    e12_resilience as e12, e13_recovery as e13, e14_adversary as e14,
};
use local_separation::fabric::{Sweep, UnitMap};
use local_separation::grid::{fold_merged, Grid, GridOutcome};
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

/// Run `grid` down all four paths and assert they agree byte-for-byte.
/// `run` is the experiment's public entry point for the same config.
fn assert_paths_agree<G: Grid>(
    label: &str,
    grid: &G,
    run: impl Fn(Option<&Checkpoint>, Option<&mut dyn TraceSink>) -> GridOutcome<G::Row>,
) where
    G::Row: Serialize,
{
    let plain = bytes(label, &run(None, None));

    let mut sink = MemorySink::new();
    let traced = bytes(label, &run(None, Some(&mut sink)));
    assert!(!sink.into_events().is_empty(), "{label}: traced run emits");
    assert_eq!(plain, traced, "{label}: tracing changed the output");

    // Half-fill a store with the first half of every point's trials, then
    // resume: replayed and fresh trials must fold like an uninterrupted run.
    let path = std::env::temp_dir().join(format!(
        "lcl-grid-paths-{label}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    {
        let store = Checkpoint::open(&path).expect("open checkpoint");
        for (point, p) in Grid::points(grid).iter().enumerate() {
            for index in 0..p.trials / 2 {
                let value = Sweep::run_unit(grid, point, index);
                store.record(&p.scope, index, value).expect("record");
            }
        }
    }
    let resumed = {
        let store = Checkpoint::open(&path).expect("reopen checkpoint");
        assert!(!store.is_empty(), "{label}: the store is half-filled");
        bytes(label, &run(Some(&store), None))
    };
    let _ = std::fs::remove_file(&path);
    assert_eq!(plain, resumed, "{label}: resuming changed the output");

    // The fabric view, units executed in reverse order.
    let map = UnitMap::new(Sweep::points(grid));
    let mut values = vec![Value::Null; map.total() as usize];
    for unit in (0..map.total()).rev() {
        let (point, index) = map.locate(unit);
        values[unit as usize] = Sweep::run_unit(grid, point, index);
    }
    let fabric = bytes(label, &fold_merged(grid, map.group(values)));
    assert_eq!(plain, fabric, "{label}: the fabric fold changed the output");
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
    assert_paths_agree("e12", &e12::Grid12::new(&cfg), |c, s| e12::run(&cfg, c, s));
}

#[test]
fn e12_paths_agree_with_error_slots() {
    // n·d odd for the 3-regular generators: two catalog slots fail.
    let cfg = e12::Config {
        sinkless_n: 61,
        ..e12_tiny()
    };
    assert_paths_agree("e12-err", &e12::Grid12::new(&cfg), |c, s| {
        e12::run(&cfg, c, s)
    });
}

#[test]
fn e13_paths_agree() {
    let cfg = e13_tiny();
    assert_paths_agree("e13", &e13::Grid13::new(&cfg), |c, s| e13::run(&cfg, c, s));
}

#[test]
fn e13_paths_agree_with_error_slots() {
    let cfg = e13::Config {
        sinkless_n: 61,
        ..e13_tiny()
    };
    assert_paths_agree("e13-err", &e13::Grid13::new(&cfg), |c, s| {
        e13::run(&cfg, c, s)
    });
}

#[test]
fn e14_paths_agree() {
    let cfg = e14_tiny();
    assert_paths_agree("e14", &e14::Grid14::new(&cfg), |c, s| e14::run(&cfg, c, s));
}

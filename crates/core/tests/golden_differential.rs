//! Golden differential fixtures for the ExecSpec refactor.
//!
//! The fixtures under `tests/fixtures/` were captured from the pre-refactor
//! execution paths (`Engine::run`/`run_faulty`, the six `run_sync*` variants,
//! the five `TrialPlan::run*` variants). After the collapse onto
//! `Engine::execute` / `run_sync(&ExecSpec)` / `TrialPlan::execute`, these
//! tests assert the unified pipeline is bit-identical on rows (rounds,
//! messages, outputs) and trace bytes, fault-free and faulty. The E12–E14
//! rows and `metrics/v1` registries pin every workload-catalog entry's
//! `measure`, `heal` and `assess`, error rows included.
//!
//! Regenerate (only when an *intentional* behavior change lands) with:
//! `GOLDEN_REGEN=1 cargo test -p local-separation --test golden_differential`

use local_algorithms::RecoveryPolicy;
use local_obs::{MemorySink, TraceSink};
use local_separation::experiments::{
    a1_ablation, e12_resilience, e13_recovery, e14_adversary, e1_separation, e2_shattering,
    e3_theorem11, e9_mis,
};
use std::fs;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("tests");
    p.push("fixtures");
    p.push(name);
    p
}

/// Compare `actual` against the named fixture, or rewrite it when
/// `GOLDEN_REGEN=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
        fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run with GOLDEN_REGEN=1", name));
    assert_eq!(
        expected, actual,
        "{name}: output diverged from the pre-refactor golden fixture"
    );
}

#[test]
fn e1_rows_match_pre_refactor_fixture() {
    let cfg = e1_separation::Config {
        deltas: vec![16],
        ns: vec![256, 1024],
        seeds: 2,
    };
    let out = e1_separation::run(&cfg, None);
    let json = serde_json::to_string_pretty(&out.rows).expect("rows serialize");
    assert_golden("e1_rows.json", &json);
}

/// E2 rows: Theorem 10's Phase-1 shattering stats (bad vertices and the
/// largest bad component) on complete trees.
#[test]
fn e2_rows_match_fixture() {
    let cfg = e2_shattering::Config {
        delta: 16,
        ns: vec![256, 1024],
        seeds: 2,
    };
    let rows = e2_shattering::run(&cfg, None);
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    assert_golden("e2_rows.json", &json);
}

/// E3 rows: Theorem 11, the other caller of Theorem 9 on a masked
/// subgraph. At this size its set `S` comes out empty, so the row pins the
/// pipeline and Phase 2's bookkeeping round; `tree_be`'s own tests pin
/// masked runs.
#[test]
fn e3_rows_match_fixture() {
    let cfg = e3_theorem11::Config {
        delta: 12,
        ns: vec![512],
        seeds: 2,
    };
    let rows = e3_theorem11::run(&cfg, None);
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    assert_golden("e3_rows.json", &json);
}

/// A1 rows: both Theorem-10 phases under each of the nine
/// (growth constant, palette margin) pairs.
#[test]
fn a1_rows_match_fixture() {
    let cfg = a1_ablation::Config {
        n: 1024,
        seeds: 1,
        ..a1_ablation::Config::quick()
    };
    let rows = a1_ablation::run(&cfg, None);
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    assert_golden("a1_rows.json", &json);
}

#[test]
fn e9_rows_match_pre_refactor_fixture() {
    let cfg = e9_mis::Config {
        delta: 4,
        ns: vec![256, 1024],
        seeds: 2,
    };
    let out = e9_mis::run(&cfg, None);
    let json = serde_json::to_string_pretty(&out.rows).expect("rows serialize");
    assert_golden("e9_rows.json", &json);
}

/// The `metrics/v1` document body of a sweep: its run-wide registry.
fn metrics_doc(metrics: &local_obs::MetricsRegistry) -> String {
    serde_json::to_string_pretty(metrics).expect("metrics serialize")
}

fn e12_tiny() -> e12_resilience::Config {
    e12_resilience::Config {
        tree_n: 80,
        sinkless_n: 60,
        mis_n: 60,
        drop_ps: vec![0.0, 0.5],
        crash_ps: vec![0.0, 0.2],
        trials: 2,
        master_seed: 7,
    }
}

/// E12 rows cover the full grid: the (0, 0) point is the fault-free path,
/// the rest exercise drops and crash-stop scheduling.
#[test]
fn e12_rows_match_pre_refactor_fixture() {
    let out = e12_resilience::run(&e12_tiny(), None, None);
    let json = serde_json::to_string_pretty(&out.rows).expect("rows serialize");
    assert_golden("e12_rows.json", &json);
    assert_golden("e12_metrics.json", &metrics_doc(&out.metrics));
}

/// The traced E12 sweep, scrubbed of wall-clock span timings, must stay
/// byte-identical: same events, same `(trial, seq)` stamps, same order.
#[test]
fn e12_trace_matches_pre_refactor_fixture() {
    let mut sink = MemorySink::new();
    let out = e12_resilience::run(&e12_tiny(), None, Some(&mut sink));
    sink.flush();
    let lines: Vec<String> = sink
        .into_events()
        .iter()
        .map(|e| serde_json::to_string(&e.scrubbed()).expect("event serializes"))
        .collect();
    let mut blob = lines.join("\n");
    blob.push('\n');
    assert_golden("e12_trace.jsonl", &blob);
    // Traced and untraced rows agree too (tracing is observational).
    let plain = e12_resilience::run(&e12_tiny(), None, None);
    assert_eq!(
        serde_json::to_string(&plain.rows).unwrap(),
        serde_json::to_string(&out.rows).unwrap(),
    );
}

fn e13_tiny() -> e13_recovery::Config {
    e13_recovery::Config {
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

/// E13 rows and metrics over every catalog entry: fault-free points heal
/// as no-ops, faulted ones exercise each family's finisher.
#[test]
fn e13_rows_and_metrics_match_fixture() {
    let out = e13_recovery::run(&e13_tiny(), None, None);
    let json = serde_json::to_string_pretty(&out.rows).expect("rows serialize");
    assert_golden("e13_rows.json", &json);
    assert_golden("e13_metrics.json", &metrics_doc(&out.metrics));
}

/// An odd `sinkless_n` has no cubic graph: the `sinkless` and
/// `edge-coloring` slots fold to error rows, pinned here byte for byte.
#[test]
fn e13_error_rows_match_fixture() {
    let cfg = e13_recovery::Config {
        sinkless_n: 61,
        ..e13_tiny()
    };
    let out = e13_recovery::run(&cfg, None, None);
    let json = serde_json::to_string_pretty(&out.rows).expect("rows serialize");
    assert_golden("e13_error_rows.json", &json);
}

/// E14 rows and metrics at the experiment's tiny search effort: every
/// workload × objective point's best plan, census and report.
#[test]
fn e14_rows_and_metrics_match_fixture() {
    let cfg = e14_adversary::Config {
        iterations: 4,
        candidates: 3,
        tenure: 3,
        restarts: 1,
        crash_budget: 3,
        drop_budget: 4,
        master_seed: 7,
        policy: RecoveryPolicy::default(),
    };
    let out = e14_adversary::run(&cfg, None, None);
    let json = serde_json::to_string_pretty(&out.rows).expect("rows serialize");
    assert_golden("e14_rows.json", &json);
    assert_golden("e14_metrics.json", &metrics_doc(&out.metrics));
}

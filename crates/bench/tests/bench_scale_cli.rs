//! `bench_scale` rejects bad input the way the `exp_*` binaries do: an
//! error line, the usage line, and exit status 2, before any graph is built.

use std::process::Command;

/// Run `bench_scale` with `args`: its exit code and stderr.
fn bench_scale(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_scale"))
        .args(args)
        .output()
        .expect("bench_scale starts");
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

fn assert_rejected(args: &[&str], says: &str) {
    let (code, stderr) = bench_scale(args);
    assert_eq!(code, Some(2), "{args:?} exits 2; stderr: {stderr}");
    assert!(stderr.contains(says), "{args:?} names the fault: {stderr}");
    assert!(
        stderr.contains("usage: bench_scale"),
        "{args:?} prints the usage: {stderr}"
    );
}

#[test]
fn an_unknown_flag_is_rejected_not_ignored() {
    // `--drops` used to run a fault-free row and exit 0.
    assert_rejected(
        &["--workload", "luby", "--n", "64", "--drops", "0.1"],
        "unknown argument `--drops`",
    );
}

#[test]
fn a_drop_outside_the_unit_interval_is_rejected() {
    for p in ["1.5", "-0.1", "nan", "x"] {
        assert_rejected(&["--workload", "luby", "--drop", p], "--drop takes");
    }
}

#[test]
fn a_zero_repeat_is_rejected() {
    assert_rejected(&["--repeat", "0"], "--repeat takes a count of at least 1");
}

#[test]
fn an_unknown_workload_is_rejected() {
    assert_rejected(&["--workload", "flod"], "unknown workload `flod`");
}

#[test]
fn a_flag_without_its_value_is_rejected() {
    assert_rejected(&["--n"], "--n needs a vertex count");
}

#[test]
fn a_flag_for_another_workload_is_rejected() {
    assert_rejected(&["--workload", "flood", "--drop", "0.1"], "luby only");
    assert_rejected(&["--workload", "theorem10", "--shards", "2"], "--shards");
}

#[test]
fn an_infeasible_graph_is_rejected() {
    assert_rejected(
        &["--workload", "luby", "--n", "7", "--d", "3"],
        "--n 7 --d 3",
    );
}

#[test]
fn good_input_still_prints_a_row() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_scale"))
        .args([
            "--workload",
            "luby",
            "--n",
            "64",
            "--d",
            "4",
            "--repeat",
            "1",
        ])
        .args(["--drop", "0.1"])
        .output()
        .expect("bench_scale starts");
    assert!(out.status.success());
    let row = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(row.starts_with("{\"workload\":\"luby\",\"n\":64,\"d\":4,\"drop\":0.1,"));
}

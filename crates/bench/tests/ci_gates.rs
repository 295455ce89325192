//! Every `bench_scale` row CI gates with `obs_report regress --bench
//! BENCH_engine.json` has a recorded baseline there. Without one, `regress`
//! exits 2 ("no entry for workload …") and the CI job stops at that step.

use serde::{Deserialize, Value};
use std::path::Path;

const GATE: &str = "obs_report regress --bench BENCH_engine.json ";

/// The workflow's shell lines, with `\` continuations joined.
fn shell_lines(yaml: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut pending = String::new();
    for line in yaml.lines() {
        let line = line.trim();
        match line.strip_suffix('\\') {
            Some(head) => {
                pending.push_str(head);
                pending.push(' ');
            }
            None => {
                pending.push_str(line);
                lines.push(std::mem::take(&mut pending));
            }
        }
    }
    lines
}

/// A gated row's key: `(workload, n, drop)`, as `regress --bench` matches.
#[derive(Debug, PartialEq)]
struct Key {
    workload: String,
    n: u64,
    drop: f64,
}

/// The key and output file of a `bench_scale … > FILE` line, which must name
/// its workload and size (the gate must not depend on `bench_scale`'s
/// defaults).
fn invocation(line: &str) -> Option<(Key, String)> {
    let args = line.split("target/release/bench_scale ").nth(1)?;
    let (args, out) = args.split_once('>')?;
    let args: Vec<&str> = args.split_whitespace().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|&a| a == name)
            .map(|i| args[i + 1].to_string())
    };
    let workload = flag("--workload").unwrap_or_else(|| panic!("no --workload in `{line}`"));
    let n = flag("--n").unwrap_or_else(|| panic!("no --n in `{line}`"));
    let key = Key {
        workload,
        n: n.parse().expect("--n is a count"),
        drop: flag("--drop").map_or(0.0, |p| p.parse().expect("--drop is a probability")),
    };
    Some((key, out.trim().to_string()))
}

#[test]
fn every_gated_ci_row_has_a_ledger_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    let ledger = std::fs::read_to_string(root.join("BENCH_engine.json")).expect("ledger");
    let ledger: Value = serde_json::from_str(&ledger).expect("ledger is JSON");
    let Value::Array(entries) = ledger else {
        panic!("BENCH_engine.json is an array of rows");
    };
    let recorded: Vec<Key> = entries
        .iter()
        .map(|e| Key {
            workload: String::from_value(e.field("workload").unwrap()).unwrap(),
            n: u64::from_value(e.field("n").unwrap()).unwrap(),
            drop: e.get("drop").map_or(0.0, |p| f64::from_value(p).unwrap()),
        })
        .collect();

    let lines = shell_lines(&ci);
    let gated: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.split(GATE).nth(1))
        .map(str::trim)
        .collect();
    let rows: Vec<Key> = lines
        .iter()
        .filter_map(|l| invocation(l))
        .filter(|(_, out)| gated.contains(&out.as_str()))
        .map(|(key, _)| key)
        .collect();
    // CI gates six rows; fewer means this parser missed some.
    assert!(
        rows.len() >= 6,
        "found only {} gated rows: {rows:?}",
        rows.len()
    );
    for row in &rows {
        assert!(
            recorded.contains(row),
            "CI gates {row:?}, but BENCH_engine.json has no entry for it"
        );
    }
}

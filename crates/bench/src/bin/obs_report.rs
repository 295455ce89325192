//! `obs_report`: summarize, diff, profile, and regression-gate run records.
//!
//! * `obs_report TRACE` — validate every line of `TRACE` and print a
//!   summary: event counts, per-round live/message curves pooled over runs,
//!   merged histograms, span timings, and recovery attempts.
//! * `obs_report --diff A B` — compare two traces *modulo timing*: span
//!   wall-clock micros are scrubbed before comparison, so two runs of the
//!   same seeded experiment must diff clean. Exit status 0 when identical,
//!   1 when they differ, 2 on unreadable/unparseable input.
//! * `obs_report profile TRACE [--folded]` — fold the trace's span events
//!   into a per-phase self-time profile. The default is a table sorted by
//!   self-time; `--folded` prints flamegraph-compatible `path weight` lines.
//! * `obs_report regress BASELINE CURRENT` — compare two `--metrics`
//!   documents metric by metric. The documents are deterministic, so any
//!   difference is drift: exit 1 on drift, 2 on malformed input.
//! * `obs_report regress --bench BASELINE CURRENT [--tol PCT]` — gate
//!   `bench_scale` rows against the recorded `BENCH_engine.json` history:
//!   each current row's `min_ns` (already a min over repeats) must stay
//!   within `1 + PCT/100` of the best recorded `min_ns` for the same
//!   `(workload, n)`. The default tolerance of 200% reproduces the old
//!   "within 3× of the best recorded run" CI rule.

use local_obs::{
    read_trace, EventData, MetricId, MetricKind, MetricsDoc, MetricsRegistry, PowHistogram,
    SpanProfile, TraceEvent,
};
use serde::{Deserialize, Value};
use std::collections::BTreeMap;

const USAGE: &str = "usage: obs_report TRACE
       obs_report --diff A B
       obs_report profile TRACE [--folded]
       obs_report regress BASELINE CURRENT
       obs_report regress --bench BASELINE CURRENT [--tol PCT]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["--help"] | ["-h"] => {
            println!("{USAGE}");
        }
        ["--diff", a, b] => diff(a, b),
        ["profile", path] => profile(path, false),
        ["profile", path, "--folded"] | ["profile", "--folded", path] => profile(path, true),
        ["regress", baseline, current] => regress_metrics(baseline, current),
        ["regress", "--bench", rest @ ..] => regress_bench(rest),
        [path] if !path.starts_with('-') => summarize(path),
        _ => usage(),
    }
}

fn load(path: &str) -> Vec<TraceEvent> {
    match read_trace(std::path::Path::new(path)) {
        Ok(events) => events,
        Err(err) => {
            eprintln!("error: {path}: {err}");
            std::process::exit(2);
        }
    }
}

/// One scrubbed event rendered for comparison: timing zeroed, everything
/// else verbatim.
fn scrubbed_line(event: &TraceEvent) -> String {
    serde_json::to_string(&event.scrubbed()).expect("trace events serialize infallibly")
}

fn diff(a_path: &str, b_path: &str) {
    let a = load(a_path);
    let b = load(b_path);
    let mut differences = 0usize;
    const SHOWN: usize = 10;
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        let (lx, ly) = (scrubbed_line(x), scrubbed_line(y));
        if lx != ly {
            if differences < SHOWN {
                println!("event {i} differs:");
                println!("  - {lx}");
                println!("  + {ly}");
            }
            differences += 1;
        }
    }
    if a.len() != b.len() {
        println!(
            "length differs: {} has {} events, {} has {}",
            a_path,
            a.len(),
            b_path,
            b.len()
        );
        differences += a.len().abs_diff(b.len());
    }
    if differences == 0 {
        println!("identical modulo timing: {} events in both traces", a.len());
    } else {
        println!("{differences} non-timing difference(s)");
        std::process::exit(1);
    }
}

#[derive(Default)]
struct RoundCurve {
    live: u64,
    messages: u64,
    samples: u64,
}

fn summarize(path: &str) {
    let events = load(path);
    println!("{path}: {} events", events.len());
    if events.is_empty() {
        return;
    }

    let trials: std::collections::BTreeSet<u64> = events.iter().map(|e| e.trial).collect();
    println!(
        "trials: {} (ids {}..={})",
        trials.len(),
        trials.iter().next().expect("nonempty"),
        trials.iter().next_back().expect("nonempty")
    );

    let mut tags: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in &events {
        *tags.entry(e.data.tag()).or_default() += 1;
    }
    let tag_list: Vec<String> = tags.iter().map(|(t, c)| format!("{t}: {c}")).collect();
    println!("events by type: {}", tag_list.join(", "));

    // The totals the trace carries are exactly its metrics: fold them the
    // way a metered run records them.
    let mut metrics = MetricsRegistry::new();
    for e in &events {
        metrics.fold(&e.data);
    }
    run_summary(&events, &metrics);
    round_curves(&events);
    histograms(&events);
    spans(&events);
    recoveries(&events, &metrics);
    search_iters(&events, &metrics);
}

fn run_summary(events: &[TraceEvent], metrics: &MetricsRegistry) {
    let runs = metrics.counter(MetricId::EngineRuns);
    if runs == 0 {
        return;
    }
    let mut rounds_max = 0u32;
    let mut breaches: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        if let EventData::RunEnd { rounds, breach, .. } = &e.data {
            rounds_max = rounds_max.max(*rounds);
            if let Some(b) = breach {
                *breaches.entry(b.clone()).or_default() += 1;
            }
        }
    }
    println!(
        "runs: {runs}; rounds mean {:.1} max {rounds_max}; messages total {}",
        metrics.counter(MetricId::EngineRounds) as f64 / runs as f64,
        metrics.counter(MetricId::EngineMessages)
    );
    println!(
        "vertex fates: halted {}, crashed {}, cut {}",
        metrics.counter(MetricId::EngineHalted),
        metrics.counter(MetricId::EngineCrashed),
        metrics.counter(MetricId::EngineCut)
    );
    for (b, c) in &breaches {
        println!("budget breaches: {b} × {c}");
    }
}

/// Per-round curves pooled over every run in the trace: how the live-vertex
/// count decays and where the message volume peaks.
fn round_curves(events: &[TraceEvent]) {
    let mut curve: BTreeMap<u32, RoundCurve> = BTreeMap::new();
    for e in events {
        if let EventData::Round {
            round,
            live,
            messages,
            ..
        } = &e.data
        {
            let slot = curve.entry(*round).or_default();
            slot.live += live;
            slot.messages += messages;
            slot.samples += 1;
        }
    }
    if curve.is_empty() {
        return;
    }
    const SHOWN: usize = 24;
    println!("per-round curve (pooled over runs; live/messages are means):");
    println!("  round  runs   live-mean  messages-mean");
    for (round, c) in curve.iter().take(SHOWN) {
        println!(
            "  {round:>5}  {:>4}  {:>10.1}  {:>13.1}",
            c.samples,
            c.live as f64 / c.samples as f64,
            c.messages as f64 / c.samples as f64
        );
    }
    if curve.len() > SHOWN {
        println!("  … {} more rounds", curve.len() - SHOWN);
    }
}

fn histograms(events: &[TraceEvent]) {
    let mut merged: BTreeMap<String, PowHistogram> = BTreeMap::new();
    for e in events {
        if let EventData::Histogram { name, hist } = &e.data {
            merged.entry(name.clone()).or_default().merge(hist);
        }
    }
    for (name, hist) in &merged {
        println!("histogram {name} (total {}):", hist.total());
        for (bin, count) in hist.nonzero() {
            let (lo, hi) = PowHistogram::bin_bounds(bin);
            println!("  [{lo}, {hi}]: {count}");
        }
    }
}

fn spans(events: &[TraceEvent]) {
    let mut timing: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for e in events {
        if let EventData::SpanEnd { name, micros } = &e.data {
            let slot = timing.entry(name.clone()).or_default();
            slot.0 += 1;
            slot.1 += micros;
        }
    }
    for (name, (count, micros)) in &timing {
        println!(
            "span {name}: {count} × (total {micros} µs, mean {:.1} µs)",
            *micros as f64 / *count as f64
        );
    }
}

fn recoveries(events: &[TraceEvent], metrics: &MetricsRegistry) {
    let attempts = metrics.counter(MetricId::RecoveryAttempts);
    if attempts == 0 {
        return;
    }
    let mut finishers: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        if let EventData::Recovery { finisher, .. } = &e.data {
            *finishers.entry(finisher.clone()).or_default() += 1;
        }
    }
    let by_finisher: Vec<String> = finishers.iter().map(|(f, c)| format!("{f}: {c}")).collect();
    println!(
        "recovery attempts: {attempts} ({} verified ok, max radius {}); {}",
        metrics.counter(MetricId::RecoveryOk),
        metrics.gauge(MetricId::RecoveryRadiusMax),
        by_finisher.join(", ")
    );
}

/// Adversary-search trajectory: how many tabu iterations ran, how often a
/// move was committed, how far the objective climbed, and which move kinds
/// the search leaned on.
fn search_iters(events: &[TraceEvent], metrics: &MetricsRegistry) {
    let iterations = metrics.counter(MetricId::SearchIterations);
    if iterations == 0 {
        return;
    }
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        if let EventData::SearchIter { mv, .. } = &e.data {
            let kind = mv.split('(').next().unwrap_or(mv).to_string();
            *kinds.entry(kind).or_default() += 1;
        }
    }
    let by_kind: Vec<String> = kinds.iter().map(|(k, c)| format!("{k}: {c}")).collect();
    println!(
        "search iterations: {iterations} ({} moves committed, best objective {}); moves: {}",
        metrics.counter(MetricId::SearchAccepted),
        metrics.gauge(MetricId::SearchBestObjective),
        by_kind.join(", ")
    );
}

/// `profile`: fold span events into per-call-path self-times.
fn profile(path: &str, folded: bool) {
    let events = load(path);
    let p = SpanProfile::from_events(&events);
    if p.is_empty() {
        eprintln!("error: {path}: no span events — was the trace recorded with spans?");
        std::process::exit(2);
    }
    if folded {
        print!("{}", p.folded());
        return;
    }
    let mut entries: Vec<_> = p.entries().to_vec();
    entries.sort_by(|a, b| b.self_micros.cmp(&a.self_micros).then(a.path.cmp(&b.path)));
    let root = p.root_micros().max(1);
    println!(
        "{path}: {} call path(s), root total {} µs",
        entries.len(),
        p.root_micros()
    );
    println!(
        "  {:>10}  {:>12}  {:>12}  {:>6}  path",
        "count", "total-µs", "self-µs", "self%"
    );
    for e in &entries {
        println!(
            "  {:>10}  {:>12}  {:>12}  {:>5.1}%  {}",
            e.count,
            e.total_micros,
            e.self_micros,
            100.0 * e.self_micros as f64 / root as f64,
            e.path
        );
    }
    if p.orphan_ends() > 0 || p.unclosed_starts() > 0 {
        println!(
            "warning: {} orphan span end(s), {} unclosed span start(s)",
            p.orphan_ends(),
            p.unclosed_starts()
        );
    }
}

fn load_json(path: &str) -> Value {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("error: {path}: {err}");
            std::process::exit(2);
        }
    };
    match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(err) => {
            eprintln!("error: {path}: {err}");
            std::process::exit(2);
        }
    }
}

fn load_metrics_doc(path: &str) -> MetricsDoc {
    match MetricsDoc::from_value(&load_json(path)) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("error: {path}: {err}");
            std::process::exit(2);
        }
    }
}

/// `regress BASELINE CURRENT`: metric-by-metric comparison of two canonical
/// metrics documents. The documents contain only deterministic content, so
/// the rule is exact equality — any difference is drift.
fn regress_metrics(baseline_path: &str, current_path: &str) {
    let baseline = load_metrics_doc(baseline_path);
    let current = load_metrics_doc(current_path);
    if baseline.experiment != current.experiment || baseline.mode != current.mode {
        eprintln!(
            "error: documents disagree on what ran: baseline is {}/{}, current is {}/{}",
            baseline.experiment, baseline.mode, current.experiment, current.mode
        );
        std::process::exit(2);
    }
    let mut drifted = 0usize;
    for id in MetricId::ALL {
        let def = id.def();
        match def.kind {
            MetricKind::Counter | MetricKind::Gauge => {
                let (b, c) = match def.kind {
                    MetricKind::Counter => {
                        (baseline.metrics.counter(*id), current.metrics.counter(*id))
                    }
                    _ => (baseline.metrics.gauge(*id), current.metrics.gauge(*id)),
                };
                if b != c {
                    drifted += 1;
                    println!(
                        "drift: {} ({}) baseline {b}, current {c}",
                        def.name,
                        def.kind.name()
                    );
                }
            }
            MetricKind::Histogram => {
                let b = baseline.metrics.histogram(*id);
                let c = current.metrics.histogram(*id);
                if b != c {
                    drifted += 1;
                    let total = |h: Option<&PowHistogram>| h.map_or(0, PowHistogram::total);
                    println!(
                        "drift: {} (histogram) baseline total {}, current total {}",
                        def.name,
                        total(b),
                        total(c)
                    );
                }
            }
        }
    }
    if drifted == 0 {
        println!(
            "no drift: {} {} metrics match the baseline exactly",
            current.experiment, current.mode
        );
    } else {
        println!("{drifted} metric(s) drifted from {baseline_path}");
        std::process::exit(1);
    }
}

/// One `bench_scale` row, as recorded in `BENCH_engine.json` or emitted by
/// a fresh run.
struct BenchRow {
    workload: String,
    n: u64,
    min_ns: u64,
}

fn bench_row(path: &str, v: &Value) -> BenchRow {
    let row = || -> Result<BenchRow, serde::DeError> {
        Ok(BenchRow {
            workload: String::from_value(v.field("workload")?)?,
            n: u64::from_value(v.field("n")?)?,
            min_ns: u64::from_value(v.field("min_ns")?)?,
        })
    };
    match row() {
        Ok(row) => row,
        Err(err) => {
            eprintln!("error: {path}: bad bench row: {err}");
            std::process::exit(2);
        }
    }
}

fn bench_rows(path: &str) -> Vec<BenchRow> {
    match load_json(path) {
        Value::Array(items) => items.iter().map(|v| bench_row(path, v)).collect(),
        v @ Value::Object(_) => vec![bench_row(path, &v)],
        _ => {
            eprintln!("error: {path}: expected a bench row or an array of rows");
            std::process::exit(2);
        }
    }
}

/// `regress --bench`: gate fresh `bench_scale` rows against the recorded
/// history. Min-of-repeats (each row's `min_ns` is already the minimum over
/// its repeats) plus a relative tolerance: current must stay within
/// `1 + tol/100` of the best recorded minimum for the same `(workload, n)`.
fn regress_bench(rest: &[&str]) {
    let (paths, tol) = match rest {
        [a, b] => ((*a, *b), 200.0),
        [a, b, "--tol", pct] => match pct.parse::<f64>() {
            Ok(t) if t >= 0.0 => ((*a, *b), t),
            _ => usage(),
        },
        _ => usage(),
    };
    let (baseline_path, current_path) = paths;
    let baseline = bench_rows(baseline_path);
    let current = bench_rows(current_path);
    if current.is_empty() {
        eprintln!("error: {current_path}: no bench rows to gate");
        std::process::exit(2);
    }
    let mut regressed = 0usize;
    for row in &current {
        let best = baseline
            .iter()
            .filter(|b| b.workload == row.workload && b.n == row.n)
            .map(|b| b.min_ns)
            .min();
        let Some(best) = best else {
            eprintln!(
                "error: {baseline_path} has no entry for workload {} at n = {}",
                row.workload, row.n
            );
            std::process::exit(2);
        };
        let limit = best as f64 * (1.0 + tol / 100.0);
        let verdict = if row.min_ns as f64 <= limit {
            "ok"
        } else {
            regressed += 1;
            "REGRESSED"
        };
        println!(
            "{} n={}: min {:.1} ms vs best recorded {:.1} ms (limit {:.1} ms at +{tol}%): {verdict}",
            row.workload,
            row.n,
            row.min_ns as f64 / 1e6,
            best as f64 / 1e6,
            limit / 1e6
        );
    }
    if regressed > 0 {
        println!("{regressed} row(s) regressed past the +{tol}% gate");
        std::process::exit(1);
    }
}

//! Scaling probe for the round engine — the repository's one wall-clock
//! measurement path, the data source behind `BENCH_engine.json` and its CI
//! gates (`obs_report regress --bench`).
//!
//! It does `--repeat` timed runs of one workload, from 1,024 to 100M
//! vertices, and reports a JSON row: mean and minimum wall-clock per run,
//! the graph's maximum degree `d`, peak RSS (`VmHWM`), and an
//! order-independent fingerprint of the outputs so shard-count invariance is
//! checkable from the command line:
//!
//! ```text
//! bench_scale --workload flood --n 1024 --repeat 200
//! bench_scale --workload flood --n 1000000 --repeat 5
//! bench_scale --workload luby  --n 10000000 --d 3 --shards 4
//! bench_scale --workload theorem10 --n 16384 --d 16
//! bench_scale --workload luby  --n 65536 --d 4 --drop 0.1
//! ```
//!
//! `--drop P` runs `luby` under a fault plan that drops every message with
//! probability `P`, sampled from `--seed`, for at most [`DROP_ROUNDS`]
//! rounds; the row then records `drop`.
//!
//! An unknown flag, a malformed or out-of-range value, or an unknown
//! workload prints the usage line and exits with status 2, as the `exp_*`
//! binaries do.
//!
//! `flood` runs on the `n`-cycle, whatever `--d` says; `luby` on the
//! `d`-regular circulant. `theorem10` runs Theorem 10's full pipeline on the
//! complete `(d−1)`-ary tree with at least `n` vertices (the row's `n` is the
//! requested size). It takes no `--shards`: `theorem10_color` runs under the
//! engine's automatic choice.

use local_algorithms::mis::luby::Luby;
use local_algorithms::run_sync;
use local_algorithms::tree::{theorem10_color, Theorem10Config};
use local_graphs::{gen, Graph};
use local_model::{
    Action, Engine, ExecSpec, FaultPlan, FaultSpec, Mode, NodeInit, NodeIo, NodeProgram, Protocol,
};
use std::time::Instant;

/// Floods the max for a fixed horizon, then halts — pure engine overhead,
/// every vertex live and broadcasting on every port for `--rounds` sweeps.
struct Flood {
    horizon: u32,
    value: u64,
}
impl NodeProgram for Flood {
    type Msg = u64;
    type Output = u64;
    fn step(&mut self, round: u32, io: &mut NodeIo<'_, u64>) -> Action<u64> {
        for (_, &m) in io.received() {
            self.value = self.value.max(m);
        }
        if round >= self.horizon {
            Action::Halt(self.value)
        } else {
            io.broadcast(self.value);
            Action::Continue
        }
    }
}
struct FloodProtocol {
    horizon: u32,
}
impl Protocol for FloodProtocol {
    type Node = Flood;
    fn create(&self, init: &NodeInit<'_>) -> Flood {
        Flood {
            horizon: self.horizon,
            value: init.id.unwrap_or(0),
        }
    }
}

/// FNV-1a over a `u64` stream — stable output fingerprint.
struct Fnv(u64);
impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

struct RunResult {
    rounds: u32,
    fingerprint: u64,
}

fn run_flood(g: &Graph, shards: usize, horizon: u32) -> RunResult {
    let run = Engine::new(g, Mode::deterministic())
        .execute(&spec_for(shards), &FloodProtocol { horizon })
        .into_run(100_000)
        .expect("flood halts at its horizon");
    let mut h = Fnv::new();
    for &o in &run.outputs {
        h.write(o);
    }
    RunResult {
        rounds: run.rounds,
        fingerprint: h.0,
    }
}

/// The round budget of a `luby` run under `--drop`: E13's MIS budget. A
/// vertex whose neighbour's final state was dropped can wait forever, so a
/// faulty run ends at the budget with such vertices cut.
const DROP_ROUNDS: u32 = 400;

fn run_luby(g: &Graph, shards: usize, seed: u64, faults: Option<&FaultPlan>) -> RunResult {
    let spec = spec_for(shards);
    let spec = match faults {
        None => spec.with_max_rounds(10_000),
        Some(plan) => spec.with_faults(plan).with_max_rounds(DROP_ROUNDS),
    };
    let run = run_sync(g, Mode::randomized(seed), &Luby::new(), &spec);
    assert!(
        faults.is_some() || run.breach.is_none(),
        "fault-free luby halts"
    );
    let mut h = Fnv::new();
    for o in &run.outcomes {
        // A cut vertex hashes as 2, beside the MIS's 0 and 1.
        h.write(o.output().map_or(2, |&b| u64::from(b)));
    }
    RunResult {
        rounds: run.max_decided_round(),
        fingerprint: h.0,
    }
}

fn run_theorem10(g: &Graph, delta: usize, seed: u64) -> RunResult {
    let out = theorem10_color(g, delta, seed, Theorem10Config::default())
        .expect("theorem 10 completes fault-free");
    let mut h = Fnv::new();
    for &c in out.coloring.labels.as_slice() {
        h.write(c as u64);
    }
    RunResult {
        rounds: out.coloring.rounds,
        fingerprint: h.0,
    }
}

/// The run spec for a `--shards` value (0 = the engine's automatic choice).
fn spec_for(shards: usize) -> ExecSpec<'static> {
    match shards {
        0 => ExecSpec::default(),
        k => ExecSpec::default().with_shards(k),
    }
}

const USAGE: &str = "usage: bench_scale [--workload flood|luby|theorem10] [--n N] [--d D] \
                     [--repeat N] [--shards N] [--rounds N] [--seed N] [--drop P]";

/// The command line, every flag checked.
struct Args {
    workload: String,
    n: usize,
    d: usize,
    repeat: usize,
    shards: usize,
    horizon: u32,
    seed: u64,
    drop: Option<f64>,
}

/// Parse a flag's value, naming the flag and what it takes on failure.
fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>, takes: &str) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs {takes}"))?;
    raw.parse()
        .map_err(|_| format!("{flag} takes {takes}, got `{raw}`"))
}

/// Parse the arguments after the program name.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: "flood".into(),
        n: 1_000_000,
        d: 3,
        repeat: 3,
        shards: 0,
        horizon: 20,
        seed: 1,
        drop: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let raw = args.next();
        match flag.as_str() {
            "--workload" => a.workload = value(&flag, raw, "a workload name")?,
            "--n" => a.n = value(&flag, raw, "a vertex count")?,
            "--d" => a.d = value(&flag, raw, "a degree")?,
            "--repeat" => a.repeat = value(&flag, raw, "a count of at least 1")?,
            "--shards" => a.shards = value(&flag, raw, "a count (0 = auto)")?,
            "--rounds" => a.horizon = value(&flag, raw, "a horizon")?,
            "--seed" => a.seed = value(&flag, raw, "a u64")?,
            "--drop" => a.drop = Some(value(&flag, raw, "a probability in [0, 1]")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !matches!(a.workload.as_str(), "flood" | "luby" | "theorem10") {
        return Err(format!(
            "unknown workload `{}` (expected flood|luby|theorem10)",
            a.workload
        ));
    }
    if a.repeat == 0 {
        return Err("--repeat takes a count of at least 1, got `0`".into());
    }
    if let Some(p) = a.drop {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--drop takes a probability in [0, 1], got `{p}`"));
        }
        if a.workload != "luby" {
            return Err("--drop applies to luby only".into());
        }
    }
    if a.workload == "theorem10" && a.shards != 0 {
        return Err("--shards must be 0 for theorem10".into());
    }
    Ok(a)
}

fn main() {
    let Args {
        workload,
        n,
        d,
        repeat,
        shards,
        horizon,
        seed,
        drop,
    } = parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });

    let gen_start = Instant::now();
    let g = match workload.as_str() {
        "flood" => gen::stream::cycle(n),
        "luby" => gen::stream::circulant(n, d).unwrap_or_else(|e| {
            eprintln!("error: --n {n} --d {d}: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }),
        _ => gen::complete_dary_tree(n, d),
    };
    let gen_ns = gen_start.elapsed().as_nanos();
    let faults = drop.map(|p| FaultPlan::sample(&g, &FaultSpec::none().with_drop(p), seed));

    let mut times = Vec::with_capacity(repeat);
    let mut result = None;
    for _ in 0..repeat {
        let t = Instant::now();
        let r = match workload.as_str() {
            "flood" => run_flood(&g, shards, horizon),
            "luby" => run_luby(&g, shards, seed, faults.as_ref()),
            _ => run_theorem10(&g, d, seed),
        };
        times.push(t.elapsed().as_nanos() as u64);
        if let Some(prev) = &result {
            let prev: &RunResult = prev;
            assert_eq!(
                prev.fingerprint, r.fingerprint,
                "same seed must reproduce bit-identically"
            );
        }
        result = Some(r);
    }
    let result = result.expect("at least one run");
    let mean_ns = times.iter().sum::<u64>() / times.len() as u64;
    let min_ns = *times.iter().min().expect("non-empty");
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let drop = drop.map_or(String::new(), |p| format!(",\"drop\":{p}"));
    println!(
        "{{\"workload\":\"{workload}\",\"n\":{n},\"d\":{d}{drop},\"shards\":{shards},\"threads\":{threads},\"repeat\":{repeat},\"gen_ns\":{gen_ns},\"mean_ns\":{mean_ns},\"min_ns\":{min_ns},\"rounds\":{rounds},\"fingerprint\":\"{fp:016x}\",\"peak_rss_bytes\":{rss}}}",
        d = g.max_degree(),
        rounds = result.rounds,
        fp = result.fingerprint,
        rss = peak_rss_bytes(),
    );
}

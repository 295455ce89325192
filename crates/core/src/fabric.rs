//! The crash-tolerant sweep fabric: a coordinator process that shards a
//! sweep into trial-range **leases** and a pool of spawned worker
//! subprocesses that claim, execute, and journal them through the JSON-lines
//! [`Checkpoint`] format.
//!
//! # Protocol
//!
//! The coordinator spawns `workers` copies of its own binary with
//! `--fabric-worker SLOT --fabric-dir DIR` and speaks one JSON object per
//! line over the worker's stdin/stdout:
//!
//! * worker → coordinator: `hello {worker, attempt}` once ready,
//!   `heartbeat {worker}` on a fixed cadence from a dedicated thread,
//!   `done {worker, start, len}` when a lease is fully journaled,
//!   `bye {worker}` on orderly shutdown.
//! * coordinator → worker: `lease {start, len}` to hand out a unit range,
//!   `shutdown` when the sweep is complete.
//!
//! Units are positions in a global flattening of the sweep's grid
//! (point-major, trial-minor — see [`UnitMap`]); each worker journals every
//! finished unit to its own `Checkpoint` at `DIR/worker-SLOT.jsonl` before
//! acknowledging the lease, so a SIGKILL at any instant loses at most the
//! unit in flight.
//!
//! # Failure handling
//!
//! A worker that misses its heartbeat deadline is killed and reaped; its
//! outstanding lease is **reclaimed** (pushed to the front of the pending
//! queue) and re-issued to the next healthy worker. Dead slots respawn under
//! a capped, jittered exponential backoff ([`crate::retry`]); when a slot's
//! respawn budget is exhausted the fabric degrades to fewer workers, and
//! only if *every* slot retires with work remaining does the sweep fail —
//! with a typed [`FabricError::WorkersExhausted`] carrying the full
//! [`WorkerExit`] history, never a panic.
//!
//! # Determinism
//!
//! Every unit's value is a pure function of the sweep config and the
//! per-trial seed, so *which* worker computes it (or how many times, after
//! reclaims) cannot change the bytes. [`merge_journals`] assembles the final
//! result in strict unit order, resolving duplicate records by scanning
//! worker journals in ascending slot order — a fixed rule, so the merged
//! report of a chaos-ridden fabric run is byte-identical to a serial
//! [`TrialPlan`](crate::trials::TrialPlan) run of the same spec.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::retry::{Backoff, RetryPolicy};
use local_obs::{EventData, ProgressMeter, Trace, TraceSink};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One grid point of a sweep: its checkpoint scope and how many trials
/// (units) it contributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// The scope string its units are journaled under (embeds workload,
    /// grid coordinates, and master seed — same contract as `--checkpoint`).
    pub scope: String,
    /// Number of trials at this point (0 for error placeholders that fold
    /// to a fixed row without running anything).
    pub trials: u64,
}

/// A sweep the fabric can shard: an ordered list of points plus a pure
/// unit-executor. Every [`Grid`](crate::grid::Grid) is one; `run_unit` must
/// depend only on `(point, index)` so re-execution after a reclaim is
/// bit-identical.
pub trait Sweep: Sync {
    /// The grid, in the exact order the serial run folds it.
    fn points(&self) -> &[SweepPoint];
    /// Execute trial `index` of point `point` and encode its outcome
    /// (panic-isolated — see [`run_unit_isolated`]).
    fn run_unit(&self, point: usize, index: u64) -> Value;
}

/// The flattening between global unit indices and `(point, trial)` pairs:
/// point-major, trial-minor, matching the serial fold order.
#[derive(Debug, Clone)]
pub struct UnitMap {
    /// `offsets[p]` = first global unit of point `p`; one extra entry holds
    /// the total.
    offsets: Vec<u64>,
}

impl UnitMap {
    /// Build the map for a point list.
    pub fn new(points: &[SweepPoint]) -> UnitMap {
        let mut offsets = Vec::with_capacity(points.len() + 1);
        let mut total = 0u64;
        offsets.push(0);
        for p in points {
            total += p.trials;
            offsets.push(total);
        }
        UnitMap { offsets }
    }

    /// Total units across all points.
    pub fn total(&self) -> u64 {
        *self.offsets.last().expect("offsets never empty")
    }

    /// The `(point, trial-index)` a global unit maps to.
    ///
    /// # Panics
    ///
    /// If `unit >= total()`.
    pub fn locate(&self, unit: u64) -> (usize, u64) {
        assert!(unit < self.total(), "unit {unit} out of range");
        // First offset strictly greater than `unit` ends the point.
        let point = self.offsets.partition_point(|&off| off <= unit) - 1;
        (point, unit - self.offsets[point])
    }

    /// Split a flat unit-ordered value list back into per-point groups
    /// (zero-trial points yield empty groups).
    ///
    /// # Panics
    ///
    /// If `values.len()` does not equal `total()`.
    pub fn group(&self, values: Vec<Value>) -> Vec<Vec<Value>> {
        assert_eq!(values.len() as u64, self.total(), "value count mismatch");
        let mut groups = Vec::with_capacity(self.offsets.len() - 1);
        let mut values = values.into_iter();
        for w in self.offsets.windows(2) {
            let len = (w[1] - w[0]) as usize;
            groups.push(values.by_ref().take(len).collect());
        }
        groups
    }
}

/// Execute `f` with panic isolation and encode the outcome exactly as the
/// serial checkpointed path does (`{"ok": R}` / `{"panicked": msg}`), so
/// fabric journals and `--checkpoint` journals speak the same format.
pub fn run_unit_isolated<R: Serialize>(f: impl FnOnce() -> R) -> Value {
    let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) => crate::trials::TrialOutcome::Ok(value),
        Err(payload) => crate::trials::TrialOutcome::Panicked {
            message: crate::trials::panic_message(payload.as_ref()),
        },
    };
    crate::trials::encode_outcome(&outcome)
}

/// Decode a journaled unit value back into a trial outcome; `None` for any
/// shape mismatch.
pub fn decode_unit<R: Deserialize>(v: &Value) -> Option<crate::trials::TrialOutcome<R>> {
    crate::trials::decode_outcome(v)
}

/// The scope string every worker journal is stamped with: a fingerprint of
/// the whole sweep (every point scope — which embed config and master seed —
/// plus the unit count), so a journal from a drifted config fails
/// [`Checkpoint::check_scope`] instead of being silently mixed in.
pub fn journal_scope(points: &[SweepPoint]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut absorb = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut total = 0u64;
    for p in points {
        absorb(p.scope.as_bytes());
        absorb(&[0xff]);
        absorb(&p.trials.to_le_bytes());
        total += p.trials;
    }
    format!("fabric/v1/{hash:016x}/units={total}")
}

/// The journal path of worker `slot` under `dir`.
pub fn journal_path(dir: &Path, slot: u64) -> PathBuf {
    dir.join(format!("worker-{slot}.jsonl"))
}

/// A contiguous range of global units handed to one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// First unit of the range.
    pub start: u64,
    /// Number of units.
    pub len: u64,
}

/// The coordinator's bookkeeping of which units are pending, leased, or
/// complete. Pure data — no I/O — so reclaim/duplicate interleavings are
/// directly testable (and proptested).
#[derive(Debug, Clone)]
pub struct LeaseLedger {
    pending: VecDeque<Lease>,
    outstanding: Vec<Option<Lease>>,
    completed: u64,
    total: u64,
}

impl LeaseLedger {
    /// Shard `total` units into leases of (at most) `lease_len` units for
    /// `slots` workers.
    pub fn new(total: u64, lease_len: u64, slots: usize) -> LeaseLedger {
        let lease_len = lease_len.max(1);
        let mut pending = VecDeque::new();
        let mut start = 0;
        while start < total {
            let len = lease_len.min(total - start);
            pending.push_back(Lease { start, len });
            start += len;
        }
        LeaseLedger {
            pending,
            outstanding: vec![None; slots],
            completed: 0,
            total,
        }
    }

    /// Hand the next pending lease to `slot`. `None` if the slot already
    /// holds a lease (one at a time) or nothing is pending.
    pub fn grant(&mut self, slot: usize) -> Option<Lease> {
        if self.outstanding[slot].is_some() {
            return None;
        }
        let lease = self.pending.pop_front()?;
        self.outstanding[slot] = Some(lease);
        Some(lease)
    }

    /// Record a completion report from `slot`. Only a report matching the
    /// slot's outstanding lease counts; duplicates and stale reports (e.g.
    /// a lease that was reclaimed and finished elsewhere) are ignored, so
    /// no unit is ever counted twice.
    pub fn complete(&mut self, slot: usize, start: u64, len: u64) -> bool {
        match &self.outstanding[slot] {
            Some(l) if l.start == start && l.len == len => {
                self.outstanding[slot] = None;
                self.completed += len;
                true
            }
            _ => false,
        }
    }

    /// Take back `slot`'s outstanding lease (it died) and requeue it at the
    /// *front* of the pending queue, so recovery work happens first.
    pub fn reclaim(&mut self, slot: usize) -> Option<Lease> {
        let lease = self.outstanding[slot].take()?;
        self.pending.push_front(lease);
        Some(lease)
    }

    /// The lease `slot` currently holds, if any.
    pub fn outstanding(&self, slot: usize) -> Option<&Lease> {
        self.outstanding[slot].as_ref()
    }

    /// Units not yet completed.
    pub fn remaining(&self) -> u64 {
        self.total - self.completed
    }

    /// Units completed so far.
    pub fn done(&self) -> u64 {
        self.completed
    }

    /// Total units in the sweep.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Has every unit been completed?
    pub fn is_done(&self) -> bool {
        self.completed == self.total
    }
}

/// Worker → coordinator protocol messages. (Hand-written serde — the derive
/// macro does not cover data-carrying enums.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMsg {
    /// The worker is up and ready for a lease.
    Hello {
        /// Worker slot.
        worker: u64,
        /// Spawn attempt (0 = first launch).
        attempt: u32,
    },
    /// Liveness signal, sent on a fixed cadence from a dedicated thread.
    Heartbeat {
        /// Worker slot.
        worker: u64,
        /// Units this attempt has journaled so far — the coordinator's live
        /// telemetry snapshot (progress line, final census).
        units: u64,
    },
    /// A lease is fully journaled.
    Done {
        /// Worker slot.
        worker: u64,
        /// Lease start unit.
        start: u64,
        /// Lease length.
        len: u64,
    },
    /// Orderly shutdown acknowledgment.
    Bye {
        /// Worker slot.
        worker: u64,
    },
}

impl Serialize for WorkerMsg {
    fn to_value(&self) -> Value {
        let (tag, mut fields): (&str, Vec<(String, Value)>) = match self {
            WorkerMsg::Hello { worker, attempt } => (
                "hello",
                vec![
                    ("worker".into(), Value::U64(*worker)),
                    ("attempt".into(), Value::U64(u64::from(*attempt))),
                ],
            ),
            WorkerMsg::Heartbeat { worker, units } => (
                "heartbeat",
                vec![
                    ("worker".into(), Value::U64(*worker)),
                    ("units".into(), Value::U64(*units)),
                ],
            ),
            WorkerMsg::Done { worker, start, len } => (
                "done",
                vec![
                    ("worker".into(), Value::U64(*worker)),
                    ("start".into(), Value::U64(*start)),
                    ("len".into(), Value::U64(*len)),
                ],
            ),
            WorkerMsg::Bye { worker } => ("bye", vec![("worker".into(), Value::U64(*worker))]),
        };
        let mut obj = vec![("msg".to_string(), Value::String(tag.to_string()))];
        obj.append(&mut fields);
        Value::Object(obj)
    }
}

impl Deserialize for WorkerMsg {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let tag = String::from_value(v.field("msg")?)?;
        let worker = u64::from_value(v.field("worker")?)?;
        match tag.as_str() {
            "hello" => Ok(WorkerMsg::Hello {
                worker,
                attempt: u32::from_value(v.field("attempt")?)?,
            }),
            "heartbeat" => Ok(WorkerMsg::Heartbeat {
                worker,
                units: u64::from_value(v.field("units")?)?,
            }),
            "done" => Ok(WorkerMsg::Done {
                worker,
                start: u64::from_value(v.field("start")?)?,
                len: u64::from_value(v.field("len")?)?,
            }),
            "bye" => Ok(WorkerMsg::Bye { worker }),
            other => Err(DeError(format!("unknown worker message `{other}`"))),
        }
    }
}

/// Coordinator → worker protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordMsg {
    /// Execute (and journal) this unit range, then report `done`.
    Lease {
        /// First unit.
        start: u64,
        /// Number of units.
        len: u64,
    },
    /// The sweep is complete; exit cleanly.
    Shutdown,
}

impl Serialize for CoordMsg {
    fn to_value(&self) -> Value {
        match self {
            CoordMsg::Lease { start, len } => Value::Object(vec![
                ("msg".into(), Value::String("lease".into())),
                ("start".into(), Value::U64(*start)),
                ("len".into(), Value::U64(*len)),
            ]),
            CoordMsg::Shutdown => {
                Value::Object(vec![("msg".into(), Value::String("shutdown".into()))])
            }
        }
    }
}

impl Deserialize for CoordMsg {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let tag = String::from_value(v.field("msg")?)?;
        match tag.as_str() {
            "lease" => Ok(CoordMsg::Lease {
                start: u64::from_value(v.field("start")?)?,
                len: u64::from_value(v.field("len")?)?,
            }),
            "shutdown" => Ok(CoordMsg::Shutdown),
            other => Err(DeError(format!("unknown coordinator message `{other}`"))),
        }
    }
}

/// Fabric tuning knobs. [`FabricConfig::from_env`] applies the
/// `LOCAL_FABRIC_*` environment overrides (used by the chaos tests to
/// shrink deadlines to test scale).
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of worker slots.
    pub workers: u64,
    /// Worker heartbeat cadence in ms (`LOCAL_FABRIC_HEARTBEAT_MS`).
    pub heartbeat_ms: u64,
    /// Silence threshold after which a worker is declared dead and killed,
    /// in ms (`LOCAL_FABRIC_DEADLINE_MS`).
    pub deadline_ms: u64,
    /// Units per lease; `None` auto-sizes to `total / (workers * 4)`,
    /// clamped to at least 1 (`LOCAL_FABRIC_LEASE_LEN`).
    pub lease_len: Option<u64>,
    /// Respawn backoff policy; the budget is per slot
    /// (`LOCAL_FABRIC_RESPAWN_BUDGET` overrides the budget).
    pub respawn: RetryPolicy,
    /// Journal fsync cadence, 0 = flush-only (`LOCAL_FABRIC_FSYNC_EVERY`).
    pub fsync_every: u64,
    /// How long to wait for workers to exit after `shutdown` before killing
    /// them, in ms.
    pub shutdown_grace_ms: u64,
    /// Print worker-lifecycle notices to stderr.
    pub verbose: bool,
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

impl FabricConfig {
    /// Defaults: 250 ms heartbeats, 5 s deadline, auto lease sizing, 3
    /// respawns per slot (100 ms → 2 s backoff), flush-only journals.
    pub fn new(workers: u64) -> FabricConfig {
        FabricConfig {
            workers,
            heartbeat_ms: 250,
            deadline_ms: 5_000,
            lease_len: None,
            respawn: RetryPolicy::new(100, 2_000, 3),
            fsync_every: 0,
            shutdown_grace_ms: 2_000,
            verbose: true,
        }
    }

    /// Defaults plus `LOCAL_FABRIC_*` environment overrides. Workers
    /// inherit the coordinator's environment, so both sides read the same
    /// knobs.
    pub fn from_env(workers: u64) -> FabricConfig {
        let mut cfg = FabricConfig::new(workers);
        if let Some(v) = env_u64("LOCAL_FABRIC_HEARTBEAT_MS") {
            cfg.heartbeat_ms = v.max(1);
        }
        if let Some(v) = env_u64("LOCAL_FABRIC_DEADLINE_MS") {
            cfg.deadline_ms = v.max(1);
        }
        if let Some(v) = env_u64("LOCAL_FABRIC_LEASE_LEN") {
            cfg.lease_len = Some(v.max(1));
        }
        if let Some(v) = env_u64("LOCAL_FABRIC_RESPAWN_BUDGET") {
            cfg.respawn.budget = u32::try_from(v).unwrap_or(u32::MAX);
        }
        if let Some(v) = env_u64("LOCAL_FABRIC_FSYNC_EVERY") {
            cfg.fsync_every = v;
        }
        cfg
    }

    fn lease_len_for(&self, total: u64) -> u64 {
        self.lease_len
            .unwrap_or_else(|| (total / (self.workers.max(1) * 4)).max(1))
    }
}

/// Why one worker attempt ended abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitCause {
    /// The process exited on its own with this status code.
    Exited(i32),
    /// The process was terminated by a signal (e.g. SIGKILL).
    Signaled,
    /// It went silent past the heartbeat deadline and was killed by the
    /// coordinator.
    HeartbeatLost,
}

impl ExitCause {
    /// A short label for traces and summaries.
    pub fn label(&self) -> String {
        match self {
            ExitCause::Exited(code) => format!("exit({code})"),
            ExitCause::Signaled => "signal".to_string(),
            ExitCause::HeartbeatLost => "heartbeat_lost".to_string(),
        }
    }
}

/// One abnormal worker death, as reported in [`FabricReport::exits`] and
/// [`FabricError::WorkersExhausted`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerExit {
    /// Worker slot.
    pub worker: u64,
    /// The spawn attempt that died.
    pub attempt: u32,
    /// How it died.
    pub cause: ExitCause,
    /// Whether it held a lease that had to be reclaimed.
    pub lease_lost: bool,
}

impl fmt::Display for WorkerExit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker {} attempt {}: {}{}",
            self.worker,
            self.attempt,
            self.cause.label(),
            if self.lease_lost {
                " (lease reclaimed)"
            } else {
                ""
            }
        )
    }
}

/// Why a fabric sweep failed. Every variant is a report, not a panic.
#[derive(Debug)]
pub enum FabricError {
    /// An I/O operation failed; `context` says which.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error text.
        error: String,
    },
    /// A worker journal could not be opened, was locked, or carries a
    /// different sweep's scope.
    Journal(CheckpointError),
    /// Every worker slot exhausted its respawn budget with units left.
    WorkersExhausted {
        /// Units never completed.
        remaining_units: u64,
        /// The full death history.
        exits: Vec<WorkerExit>,
    },
    /// The merged journals do not cover every unit (a Done was reported for
    /// units that were never journaled — should not happen).
    MissingUnits {
        /// How many units have no record.
        missing: u64,
        /// The lowest uncovered unit index.
        first: u64,
    },
    /// The fabric was asked to run with zero workers.
    NoWorkers,
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Io { context, error } => write!(f, "fabric I/O: {context}: {error}"),
            FabricError::Journal(err) => write!(f, "fabric journal: {err}"),
            FabricError::WorkersExhausted {
                remaining_units,
                exits,
            } => {
                write!(
                    f,
                    "every worker slot exhausted its respawn budget with {remaining_units} \
                     unit(s) incomplete; deaths: "
                )?;
                for (i, e) in exits.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            FabricError::MissingUnits { missing, first } => write!(
                f,
                "merged journals are missing {missing} unit(s), first at index {first}"
            ),
            FabricError::NoWorkers => write!(f, "fabric needs at least one worker"),
        }
    }
}

impl std::error::Error for FabricError {}

impl FabricError {
    fn io(context: &str, error: &std::io::Error) -> FabricError {
        FabricError::Io {
            context: context.to_string(),
            error: error.to_string(),
        }
    }

    /// A short machine-readable tag for JSON error surfaces.
    pub fn kind(&self) -> &'static str {
        match self {
            FabricError::Io { .. } => "io",
            FabricError::Journal(err) => err.kind(),
            FabricError::WorkersExhausted { .. } => "workers_exhausted",
            FabricError::MissingUnits { .. } => "missing_units",
            FabricError::NoWorkers => "no_workers",
        }
    }
}

/// Per-slot telemetry from a completed fabric run: how many processes the
/// slot spawned, the units it completed, and its abnormal exits. Unit
/// counts are exact — they come from the coordinator's confirmed lease
/// completions, not worker self-reports — but work a dead attempt did on a
/// reclaimed lease is credited to whichever slot re-executes it.
#[derive(Debug, Clone, serde::Serialize)]
pub struct WorkerCensus {
    /// Worker slot.
    pub worker: u64,
    /// Processes spawned for the slot (1 + respawns); 0 for an empty sweep.
    pub spawns: u64,
    /// Units the slot completed via confirmed leases, across all attempts.
    pub units: u64,
    /// Exit-cause labels of the slot's abnormal deaths, in order.
    pub exits: Vec<String>,
}

/// What a completed fabric sweep reports alongside its merged values.
#[derive(Debug)]
pub struct FabricReport {
    /// The merged per-unit values, in strict unit order — byte-identical to
    /// what the serial run would have produced.
    pub values: Vec<Value>,
    /// Every abnormal worker death, in detection order.
    pub exits: Vec<WorkerExit>,
    /// Total processes spawned (initial pool + respawns).
    pub spawns: u64,
    /// How many of those were respawns of dead slots.
    pub respawns: u64,
    /// Leases reclaimed from dead workers.
    pub reclaimed: u64,
    /// Whether any slot retired early (respawn budget exhausted) and the
    /// sweep finished on fewer workers.
    pub degraded: bool,
    /// The per-worker telemetry census, one entry per slot.
    pub workers: Vec<WorkerCensus>,
}

impl FabricReport {
    /// One-line summary for stderr.
    pub fn summary(&self, workers: u64) -> String {
        format!(
            "fabric: {} units merged from {workers} worker slot(s); {} spawn(s) \
             ({} respawn(s)), {} death(s), {} lease(s) reclaimed{}",
            self.values.len(),
            self.spawns,
            self.respawns,
            self.exits.len(),
            self.reclaimed,
            if self.degraded {
                "; DEGRADED (a slot exhausted its respawn budget)"
            } else {
                ""
            }
        )
    }
}

/// How to launch one worker: the program plus every argument *except* the
/// trailing `--fabric-worker N --fabric-attempt K` the coordinator appends.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Executable path (usually `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments reconstructing the experiment config plus `--fabric-dir`.
    pub args: Vec<String>,
}

/// Merge the per-worker journals under `dir` into the flat unit-ordered
/// value list. Duplicate records for a unit (possible after lease reclaims)
/// resolve deterministically: worker journals are scanned in ascending slot
/// order and the first record wins (the values are identical anyway — units
/// are pure functions of the seed).
///
/// # Errors
///
/// [`FabricError::Journal`] if a journal is unreadable, locked, or
/// scope-mismatched; [`FabricError::MissingUnits`] if the union of journals
/// does not cover `0..total`.
pub fn merge_journals(
    dir: &Path,
    workers: u64,
    scope: &str,
    total: u64,
) -> Result<Vec<Value>, FabricError> {
    let mut values: Vec<Option<Value>> =
        vec![None; usize::try_from(total).expect("unit count fits in memory")];
    for slot in 0..workers {
        let path = journal_path(dir, slot);
        if !path.exists() {
            continue;
        }
        let journal = Checkpoint::open(&path).map_err(FabricError::Journal)?;
        journal
            .check_scope(&[scope.to_string()])
            .map_err(FabricError::Journal)?;
        for (unit, value) in values.iter_mut().enumerate() {
            if value.is_none() {
                *value = journal.lookup(scope, unit as u64);
            }
        }
    }
    let missing = values.iter().filter(|v| v.is_none()).count() as u64;
    if missing > 0 {
        let first = values.iter().position(Option::is_none).unwrap_or(0) as u64;
        return Err(FabricError::MissingUnits { missing, first });
    }
    Ok(values.into_iter().flatten().collect())
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

enum ReaderEvent {
    Line(String),
    Eof,
}

struct Slot {
    attempt: u32,
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    last_heard: Instant,
    backoff: Backoff,
    respawn_at: Option<Instant>,
    retired: bool,
    /// Units completed via confirmed leases, across all attempts.
    units: u64,
    /// Units completed by the *current* attempt (resets on death).
    attempt_done: u64,
    /// Cumulative units the current attempt last reported via heartbeat;
    /// `hb_units - attempt_done` is its progress on the outstanding lease.
    hb_units: u64,
}

struct Coordinator<'a> {
    cmd: &'a WorkerCommand,
    cfg: &'a FabricConfig,
    slots: Vec<Slot>,
    ledger: LeaseLedger,
    tx: mpsc::Sender<(usize, u32, ReaderEvent)>,
    trace: Trace,
    exits: Vec<WorkerExit>,
    spawns: u64,
    respawns: u64,
    reclaimed: u64,
    degraded: bool,
    meter: ProgressMeter,
}

impl Coordinator<'_> {
    fn note(&self, message: &str) {
        local_obs::progress(!self.cfg.verbose, &format!("fabric: {message}"));
    }

    /// Emit the rate-limited live progress line: completed units from the
    /// ledger plus heartbeat-reported progress on outstanding leases, the
    /// live worker count, and the worst per-worker heartbeat lag.
    fn tick_progress(&mut self) {
        let now = Instant::now();
        let live = self.slots.iter().filter(|s| s.child.is_some()).count();
        let lag = self
            .slots
            .iter()
            .filter(|s| s.child.is_some())
            .map(|s| now.duration_since(s.last_heard).as_secs_f64())
            .fold(0.0_f64, f64::max);
        let inflight: u64 = self
            .slots
            .iter()
            .filter(|s| s.child.is_some())
            .map(|s| s.hb_units.saturating_sub(s.attempt_done))
            .sum();
        let extra = format!("[{live} worker(s), max lag {lag:.1}s]");
        self.meter.update(self.ledger.done() + inflight, &extra);
    }

    fn spawn(&mut self, slot: usize) -> std::io::Result<()> {
        let attempt = self.slots[slot].attempt;
        let mut child = Command::new(&self.cmd.program)
            .args(&self.cmd.args)
            .arg("--fabric-worker")
            .arg(slot.to_string())
            .arg("--fabric-attempt")
            .arg(attempt.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        self.slots[slot].stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("worker stdout is piped");
        let tx = self.tx.clone();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                match line {
                    Ok(l) => {
                        if tx.send((slot, attempt, ReaderEvent::Line(l))).is_err() {
                            return;
                        }
                    }
                    Err(_) => break,
                }
            }
            let _ = tx.send((slot, attempt, ReaderEvent::Eof));
        });
        self.slots[slot].child = Some(child);
        self.slots[slot].last_heard = Instant::now();
        self.spawns += 1;
        self.trace.emit(EventData::WorkerSpawn {
            worker: slot as u64,
            attempt,
        });
        Ok(())
    }

    /// Offer the slot a lease if it is idle and work is pending. Write
    /// failures are left for the reader thread's EOF to clean up (the lease
    /// stays outstanding and is reclaimed by the death handler).
    fn try_grant(&mut self, slot: usize) {
        if self.slots[slot].retired || self.slots[slot].child.is_none() {
            return;
        }
        let Some(lease) = self.ledger.grant(slot) else {
            return;
        };
        self.trace.emit(EventData::LeaseGrant {
            worker: slot as u64,
            start: lease.start,
            len: lease.len,
        });
        let mut line = serde_json::to_string(&CoordMsg::Lease {
            start: lease.start,
            len: lease.len,
        })
        .expect("protocol messages serialize infallibly");
        line.push('\n');
        if let Some(stdin) = self.slots[slot].stdin.as_mut() {
            if stdin.write_all(line.as_bytes()).is_err() {
                self.note(&format!(
                    "worker {slot} rejected a lease write; awaiting reap"
                ));
            }
        }
    }

    fn handle_line(&mut self, slot: usize, line: &str) {
        self.slots[slot].last_heard = Instant::now();
        let Ok(value) = serde_json::from_str::<Value>(line) else {
            // Stray prints on a worker's stdout must not kill the sweep.
            self.note(&format!("ignoring unparseable line from worker {slot}"));
            return;
        };
        let Ok(msg) = WorkerMsg::from_value(&value) else {
            self.note(&format!("ignoring unknown message from worker {slot}"));
            return;
        };
        match msg {
            WorkerMsg::Hello { .. } => self.try_grant(slot),
            WorkerMsg::Heartbeat { units, .. } => {
                self.slots[slot].hb_units = units;
                self.try_grant(slot);
            }
            WorkerMsg::Done { start, len, .. } => {
                if self.ledger.complete(slot, start, len) {
                    self.slots[slot].units += len;
                    self.slots[slot].attempt_done += len;
                    self.trace.emit(EventData::LeaseDone {
                        worker: slot as u64,
                        start,
                        len,
                    });
                }
                self.try_grant(slot);
            }
            WorkerMsg::Bye { .. } => {}
        }
    }

    /// A worker attempt is gone: reap it, reclaim its lease, and schedule a
    /// respawn (or retire the slot when the budget is spent).
    fn handle_death(&mut self, slot: usize, cause: ExitCause) {
        let attempt = self.slots[slot].attempt;
        if let Some(mut child) = self.slots[slot].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.slots[slot].stdin = None;
        self.slots[slot].attempt_done = 0;
        self.slots[slot].hb_units = 0;
        let lost = self.ledger.reclaim(slot);
        if let Some(lease) = &lost {
            self.reclaimed += 1;
            self.trace.emit(EventData::LeaseReclaim {
                worker: slot as u64,
                start: lease.start,
                len: lease.len,
            });
        }
        self.trace.emit(EventData::WorkerDown {
            worker: slot as u64,
            attempt,
            cause: cause.label(),
            lease_lost: lost.is_some(),
        });
        self.exits.push(WorkerExit {
            worker: slot as u64,
            attempt,
            cause: cause.clone(),
            lease_lost: lost.is_some(),
        });
        self.note(&format!(
            "worker {slot} attempt {attempt} down ({}){}",
            cause.label(),
            if lost.is_some() {
                ", lease reclaimed"
            } else {
                ""
            }
        ));
        if self.ledger.is_done() {
            self.slots[slot].retired = true;
            return;
        }
        match self.slots[slot].backoff.next() {
            Some(delay_ms) => {
                self.slots[slot].respawn_at =
                    Some(Instant::now() + Duration::from_millis(delay_ms));
            }
            None => {
                self.slots[slot].retired = true;
                self.degraded = true;
                self.note(&format!(
                    "worker {slot} retired (respawn budget exhausted); degrading to fewer workers"
                ));
            }
        }
    }

    fn run(&mut self, rx: &mpsc::Receiver<(usize, u32, ReaderEvent)>) -> Result<(), FabricError> {
        let deadline = Duration::from_millis(self.cfg.deadline_ms);
        let tick = Duration::from_millis(self.cfg.heartbeat_ms.clamp(10, 200));
        while !self.ledger.is_done() {
            if self.slots.iter().all(|s| s.retired) {
                return Err(FabricError::WorkersExhausted {
                    remaining_units: self.ledger.remaining(),
                    exits: self.exits.clone(),
                });
            }
            match rx.recv_timeout(tick) {
                Ok((slot, attempt, event)) => {
                    // A stale reader (from an attempt already reaped) may
                    // still deliver; only the current attempt counts.
                    if attempt != self.slots[slot].attempt {
                        continue;
                    }
                    match event {
                        ReaderEvent::Line(line) => self.handle_line(slot, &line),
                        ReaderEvent::Eof => {
                            if self.slots[slot].child.is_none() {
                                continue; // already handled (deadline kill)
                            }
                            let cause = match self.slots[slot]
                                .child
                                .as_mut()
                                .expect("checked above")
                                .wait()
                            {
                                Ok(status) => match status.code() {
                                    Some(code) => ExitCause::Exited(code),
                                    None => ExitCause::Signaled,
                                },
                                Err(_) => ExitCause::Signaled,
                            };
                            self.handle_death(slot, cause);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("coordinator holds a sender")
                }
            }
            let now = Instant::now();
            // Heartbeat deadlines: a silent worker is dead even if its
            // process is technically alive (stalled, wedged, swapping).
            for slot in 0..self.slots.len() {
                if self.slots[slot].child.is_some()
                    && now.duration_since(self.slots[slot].last_heard) > deadline
                {
                    self.handle_death(slot, ExitCause::HeartbeatLost);
                }
            }
            // Respawns that have served their backoff delay.
            for slot in 0..self.slots.len() {
                let due = !self.slots[slot].retired
                    && self.slots[slot].child.is_none()
                    && self.slots[slot].respawn_at.is_some_and(|at| now >= at);
                if due {
                    self.slots[slot].respawn_at = None;
                    self.slots[slot].attempt += 1;
                    self.respawns += 1;
                    let attempt = self.slots[slot].attempt;
                    self.note(&format!("respawning worker {slot} (attempt {attempt})"));
                    if let Err(err) = self.spawn(slot) {
                        self.note(&format!("respawn of worker {slot} failed: {err}"));
                        self.handle_death(slot, ExitCause::Exited(-1));
                    }
                }
            }
            self.tick_progress();
        }
        self.meter.finish(self.ledger.done(), "");
        Ok(())
    }

    fn shutdown(&mut self) {
        let mut line = serde_json::to_string(&CoordMsg::Shutdown)
            .expect("protocol messages serialize infallibly");
        line.push('\n');
        for slot in &mut self.slots {
            if let Some(stdin) = slot.stdin.as_mut() {
                let _ = stdin.write_all(line.as_bytes());
            }
            slot.stdin = None; // close the pipe: EOF doubles as shutdown
        }
        let grace = Instant::now() + Duration::from_millis(self.cfg.shutdown_grace_ms);
        loop {
            let mut alive = false;
            for slot in &mut self.slots {
                if let Some(child) = slot.child.as_mut() {
                    match child.try_wait() {
                        Ok(Some(_)) => slot.child = None,
                        Ok(None) => alive = true,
                        Err(_) => slot.child = None,
                    }
                }
            }
            if !alive {
                break;
            }
            if Instant::now() > grace {
                for slot in &mut self.slots {
                    if let Some(mut child) = slot.child.take() {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Run a fabric sweep: spawn the worker pool, drive the lease protocol until
/// every unit is journaled, shut the pool down, and merge the journals.
///
/// `dir` holds one journal per worker slot; pre-existing journals (from a
/// killed coordinator) are validated against `scope` and their records
/// reused — kill-and-resume extends across the whole fabric. Lifecycle
/// events (spawns, deaths, lease grants/reclaims) are emitted to `sink`
/// when given.
///
/// # Errors
///
/// See [`FabricError`]; the fabric never panics on worker failure.
pub fn run_fabric(
    total: u64,
    cmd: &WorkerCommand,
    dir: &Path,
    scope: &str,
    cfg: &FabricConfig,
    sink: Option<&mut dyn TraceSink>,
) -> Result<FabricReport, FabricError> {
    if cfg.workers == 0 {
        return Err(FabricError::NoWorkers);
    }
    std::fs::create_dir_all(dir).map_err(|e| FabricError::io("creating fabric dir", &e))?;
    // Validate any pre-existing journals before spawning: a scope mismatch
    // (config or seed drift) must fail loudly up front, not per-worker.
    for slot in 0..cfg.workers {
        let path = journal_path(dir, slot);
        if path.exists() {
            let journal = Checkpoint::open(&path).map_err(FabricError::Journal)?;
            journal
                .check_scope(&[scope.to_string()])
                .map_err(FabricError::Journal)?;
            // Drop immediately: the worker owns this journal (and its lock)
            // from here on.
        }
    }

    let (tx, rx) = mpsc::channel();
    let mut coordinator = Coordinator {
        cmd,
        cfg,
        slots: (0..cfg.workers as usize)
            .map(|slot| Slot {
                attempt: 0,
                child: None,
                stdin: None,
                last_heard: Instant::now(),
                backoff: cfg
                    .respawn
                    .with_jitter_seed(cfg.respawn.jitter_seed ^ slot as u64)
                    .delays(),
                respawn_at: None,
                retired: false,
                units: 0,
                attempt_done: 0,
                hb_units: 0,
            })
            .collect(),
        ledger: LeaseLedger::new(total, cfg.lease_len_for(total), cfg.workers as usize),
        tx,
        trace: Trace::new(0),
        exits: Vec::new(),
        spawns: 0,
        respawns: 0,
        reclaimed: 0,
        degraded: false,
        meter: ProgressMeter::new(!cfg.verbose, "fabric", total),
    };

    let result = if total == 0 {
        Ok(())
    } else {
        let mut spawn_error = None;
        for slot in 0..cfg.workers as usize {
            if let Err(err) = coordinator.spawn(slot) {
                spawn_error = Some(FabricError::io("spawning initial worker pool", &err));
                break;
            }
        }
        match spawn_error {
            Some(err) => Err(err),
            None => coordinator.run(&rx),
        }
    };
    coordinator.shutdown();
    if let Some(sink) = sink {
        coordinator.trace.drain_into(sink);
        sink.flush();
    }
    result?;

    let values = merge_journals(dir, cfg.workers, scope, total)?;
    let workers = coordinator
        .slots
        .iter()
        .enumerate()
        .map(|(slot, s)| WorkerCensus {
            worker: slot as u64,
            spawns: if total == 0 {
                0
            } else {
                u64::from(s.attempt) + 1
            },
            units: s.units,
            exits: coordinator
                .exits
                .iter()
                .filter(|e| e.worker == slot as u64)
                .map(|e| e.cause.label())
                .collect(),
        })
        .collect();
    Ok(FabricReport {
        values,
        exits: coordinator.exits,
        spawns: coordinator.spawns,
        respawns: coordinator.respawns,
        reclaimed: coordinator.reclaimed,
        degraded: coordinator.degraded,
        workers,
    })
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Which worker process this is: its journal directory, slot, and spawn
/// attempt (all passed by the coordinator on the command line).
#[derive(Debug, Clone)]
pub struct WorkerEnv {
    /// The fabric journal directory (`--fabric-dir`).
    pub dir: PathBuf,
    /// This worker's slot (`--fabric-worker`).
    pub worker: u64,
    /// Spawn attempt (`--fabric-attempt`, 0 = first launch).
    pub attempt: u32,
}

fn send_msg(msg: &WorkerMsg) -> std::io::Result<()> {
    let mut line = serde_json::to_string(msg).expect("protocol messages serialize infallibly");
    line.push('\n');
    // One write_all call per line: Stdout locks internally per call, so the
    // heartbeat thread and the main loop never interleave partial lines.
    let mut out = std::io::stdout();
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// Fault-injection hook for the chaos tests: `LOCAL_FABRIC_CHAOS` names
/// per-slot failures, e.g. `0:abort@3,1:stall@5` — slot 0 SIGKILL-aborts
/// after journaling 3 units, slot 1 stops heartbeating and hangs after 5.
/// Only the first attempt of a slot misbehaves, so respawns recover.
struct Chaos {
    after_units: u64,
    mode: ChaosMode,
}

enum ChaosMode {
    Abort,
    Stall,
}

impl Chaos {
    fn from_env(worker: u64, attempt: u32) -> Option<Chaos> {
        if attempt != 0 {
            return None;
        }
        let spec = std::env::var("LOCAL_FABRIC_CHAOS").ok()?;
        for part in spec.split(',') {
            let (slot, rest) = part.split_once(':')?;
            if slot.trim().parse::<u64>().ok()? != worker {
                continue;
            }
            let (mode, count) = rest.split_once('@')?;
            let after_units = count.trim().parse().ok()?;
            let mode = match mode.trim() {
                "abort" => ChaosMode::Abort,
                "stall" => ChaosMode::Stall,
                _ => return None,
            };
            return Some(Chaos { after_units, mode });
        }
        None
    }

    /// Called after each journaled unit; may never return.
    fn tick(&self, executed: u64, heartbeats: &AtomicBool) {
        if executed < self.after_units {
            return;
        }
        match self.mode {
            // SIGKILL semantics: no unwinding, no cleanup, journal lock
            // released only by process death.
            ChaosMode::Abort => std::process::abort(),
            ChaosMode::Stall => {
                heartbeats.store(false, Ordering::Relaxed);
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        }
    }
}

/// Serve one worker process: open (and lock) the slot's journal, start the
/// heartbeat thread, and execute leases from stdin until shutdown or EOF,
/// journaling every unit before acknowledging. `exec` maps a global unit
/// index to its encoded value (see [`run_unit_isolated`]).
///
/// Units already present in the journal (from a previous attempt of this
/// slot) are skipped, not recomputed — kill-and-resume holds per worker.
///
/// # Errors
///
/// [`FabricError::Journal`] if the journal cannot be opened/locked or
/// carries a different sweep's scope; [`FabricError::Io`] on protocol or
/// journal-append failures.
pub fn worker_serve<F>(env: &WorkerEnv, scope: &str, exec: F) -> Result<(), FabricError>
where
    F: Fn(u64) -> Value,
{
    let cfg = FabricConfig::from_env(1);
    let journal = Checkpoint::open(journal_path(&env.dir, env.worker))
        .map_err(FabricError::Journal)?
        .with_fsync_every(cfg.fsync_every);
    journal
        .check_scope(&[scope.to_string()])
        .map_err(FabricError::Journal)?;
    let chaos = Chaos::from_env(env.worker, env.attempt);

    let heartbeats = Arc::new(AtomicBool::new(true));
    // The heartbeat thread snapshots this counter so every liveness signal
    // doubles as a progress report — the coordinator's live telemetry.
    let units_done = Arc::new(AtomicU64::new(0));
    let hb_flag = Arc::clone(&heartbeats);
    let hb_units = Arc::clone(&units_done);
    let hb_worker = env.worker;
    let hb_cadence = Duration::from_millis(cfg.heartbeat_ms);
    let hb_thread = std::thread::spawn(move || {
        while hb_flag.load(Ordering::Relaxed) {
            let beat = WorkerMsg::Heartbeat {
                worker: hb_worker,
                units: hb_units.load(Ordering::Relaxed),
            };
            if send_msg(&beat).is_err() {
                return; // coordinator is gone; the main loop will see EOF
            }
            std::thread::sleep(hb_cadence);
        }
    });

    let serve = || -> Result<(), FabricError> {
        send_msg(&WorkerMsg::Hello {
            worker: env.worker,
            attempt: env.attempt,
        })
        .map_err(|e| FabricError::io("sending hello", &e))?;
        for line in BufReader::new(std::io::stdin()).lines() {
            let line = line.map_err(|e| FabricError::io("reading coordinator message", &e))?;
            if line.trim().is_empty() {
                continue;
            }
            let msg = serde_json::from_str::<Value>(&line)
                .ok()
                .and_then(|v| CoordMsg::from_value(&v).ok());
            match msg {
                Some(CoordMsg::Lease { start, len }) => {
                    for unit in start..start.saturating_add(len) {
                        if journal.lookup(scope, unit).is_none() {
                            let value = exec(unit);
                            journal
                                .record(scope, unit, value)
                                .map_err(|e| FabricError::io("journaling unit", &e))?;
                            let executed = units_done.fetch_add(1, Ordering::Relaxed) + 1;
                            if let Some(chaos) = &chaos {
                                chaos.tick(executed, &heartbeats);
                            }
                        }
                    }
                    send_msg(&WorkerMsg::Done {
                        worker: env.worker,
                        start,
                        len,
                    })
                    .map_err(|e| FabricError::io("sending done", &e))?;
                }
                Some(CoordMsg::Shutdown) => {
                    let _ = send_msg(&WorkerMsg::Bye { worker: env.worker });
                    break;
                }
                None => {
                    return Err(FabricError::Io {
                        context: "parsing coordinator message".to_string(),
                        error: format!("unparseable line: {line:?}"),
                    });
                }
            }
        }
        Ok(())
    };
    let result = serve();
    heartbeats.store(false, Ordering::Relaxed);
    let _ = hb_thread.join();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "lcl-fabric-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("mkdir");
        p
    }

    fn points(trials: &[u64]) -> Vec<SweepPoint> {
        trials
            .iter()
            .enumerate()
            .map(|(i, &t)| SweepPoint {
                scope: format!("p{i}"),
                trials: t,
            })
            .collect()
    }

    #[test]
    fn unit_map_locates_and_groups() {
        let pts = points(&[3, 0, 2]);
        let map = UnitMap::new(&pts);
        assert_eq!(map.total(), 5);
        assert_eq!(map.locate(0), (0, 0));
        assert_eq!(map.locate(2), (0, 2));
        assert_eq!(map.locate(3), (2, 0), "zero-trial point is skipped");
        assert_eq!(map.locate(4), (2, 1));
        let groups = map.group((0..5).map(Value::U64).collect());
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], vec![Value::U64(0), Value::U64(1), Value::U64(2)]);
        assert!(groups[1].is_empty());
        assert_eq!(groups[2], vec![Value::U64(3), Value::U64(4)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unit_map_rejects_out_of_range() {
        UnitMap::new(&points(&[2])).locate(2);
    }

    #[test]
    fn journal_scope_fingerprints_config() {
        let a = journal_scope(&points(&[3, 2]));
        let b = journal_scope(&points(&[3, 2]));
        assert_eq!(a, b, "deterministic");
        assert!(a.starts_with("fabric/v1/"), "{a}");
        assert!(a.ends_with("/units=5"), "{a}");
        // Different trial counts or scopes change the fingerprint.
        assert_ne!(a, journal_scope(&points(&[2, 3])));
        let mut renamed = points(&[3, 2]);
        renamed[0].scope = "other".into();
        assert_ne!(a, journal_scope(&renamed));
    }

    #[test]
    fn ledger_grants_completes_and_reclaims() {
        let mut ledger = LeaseLedger::new(10, 4, 2);
        assert_eq!(ledger.remaining(), 10);
        let a = ledger.grant(0).expect("lease for slot 0");
        assert_eq!(a, Lease { start: 0, len: 4 });
        assert_eq!(ledger.grant(0), None, "one lease per slot");
        let b = ledger.grant(1).expect("lease for slot 1");
        assert_eq!(b, Lease { start: 4, len: 4 });

        // Slot 0 dies: its lease goes back to the front.
        let lost = ledger.reclaim(0).expect("reclaim");
        assert_eq!(lost, Lease { start: 0, len: 4 });
        assert_eq!(ledger.reclaim(0), None, "double reclaim is a no-op");

        // Slot 1 finishes and picks up the reclaimed lease first.
        assert!(ledger.complete(1, 4, 4));
        assert!(!ledger.complete(1, 4, 4), "duplicate done is ignored");
        assert_eq!(ledger.grant(1), Some(Lease { start: 0, len: 4 }));
        assert!(ledger.complete(1, 0, 4));
        assert_eq!(ledger.grant(1), Some(Lease { start: 8, len: 2 }));
        assert!(!ledger.is_done());
        assert!(ledger.complete(1, 8, 2));
        assert!(ledger.is_done());
        assert_eq!(ledger.remaining(), 0);
    }

    #[test]
    fn ledger_ignores_stale_completion_after_reclaim() {
        let mut ledger = LeaseLedger::new(4, 4, 2);
        ledger.grant(0).expect("lease");
        ledger.reclaim(0).expect("reclaim");
        // The dead slot's Done arrives late (it journaled, then was declared
        // dead): it must not count — the reissued lease will.
        assert!(!ledger.complete(0, 0, 4));
        assert_eq!(ledger.grant(1), Some(Lease { start: 0, len: 4 }));
        assert!(ledger.complete(1, 0, 4));
        assert!(ledger.is_done());
    }

    #[test]
    fn protocol_messages_round_trip() {
        let worker_msgs = vec![
            WorkerMsg::Hello {
                worker: 3,
                attempt: 2,
            },
            WorkerMsg::Heartbeat {
                worker: 0,
                units: 42,
            },
            WorkerMsg::Done {
                worker: 1,
                start: 16,
                len: 8,
            },
            WorkerMsg::Bye { worker: 7 },
        ];
        for msg in worker_msgs {
            let line = serde_json::to_string(&msg).unwrap();
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(WorkerMsg::from_value(&v).unwrap(), msg, "{line}");
        }
        let coord_msgs = vec![CoordMsg::Lease { start: 5, len: 3 }, CoordMsg::Shutdown];
        for msg in coord_msgs {
            let line = serde_json::to_string(&msg).unwrap();
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(CoordMsg::from_value(&v).unwrap(), msg, "{line}");
        }
    }

    #[test]
    fn unknown_protocol_messages_are_errors() {
        let v: Value = serde_json::from_str(r#"{"msg": "warp", "worker": 0}"#).unwrap();
        assert!(WorkerMsg::from_value(&v).is_err());
        assert!(CoordMsg::from_value(&v).is_err());
    }

    #[test]
    fn merge_scans_slots_in_order_and_tolerates_duplicates() {
        let dir = temp_dir("merge");
        let scope = "fabric/v1/test/units=6";
        {
            let j0 = Checkpoint::open(journal_path(&dir, 0)).expect("open");
            for unit in [0u64, 1, 2, 4] {
                j0.record(scope, unit, Value::U64(unit * 10)).expect("rec");
            }
            // Worker 1 recomputed units 2 and 4 after a reclaim (identical
            // values, as the determinism contract guarantees) plus its own.
            let j1 = Checkpoint::open(journal_path(&dir, 1)).expect("open");
            for unit in [2u64, 3, 4, 5] {
                j1.record(scope, unit, Value::U64(unit * 10)).expect("rec");
            }
        }
        let merged = merge_journals(&dir, 2, scope, 6).expect("merge");
        assert_eq!(
            merged,
            (0..6).map(|u| Value::U64(u * 10)).collect::<Vec<_>>()
        );
        // A missing journal for a slot that never spawned is fine.
        let merged = merge_journals(&dir, 4, scope, 6).expect("merge with gaps");
        assert_eq!(merged.len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_reports_missing_units() {
        let dir = temp_dir("missing");
        let scope = "s";
        {
            let j0 = Checkpoint::open(journal_path(&dir, 0)).expect("open");
            j0.record(scope, 0, Value::U64(1)).expect("rec");
            j0.record(scope, 2, Value::U64(3)).expect("rec");
        }
        match merge_journals(&dir, 1, scope, 4) {
            Err(FabricError::MissingUnits { missing, first }) => {
                assert_eq!(missing, 2);
                assert_eq!(first, 1);
            }
            other => panic!("expected MissingUnits, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_scope_drift() {
        let dir = temp_dir("drift");
        {
            let j0 = Checkpoint::open(journal_path(&dir, 0)).expect("open");
            j0.record("old-scope", 0, Value::U64(1)).expect("rec");
        }
        match merge_journals(&dir, 1, "new-scope", 1) {
            Err(FabricError::Journal(CheckpointError::ScopeMismatch { found, .. })) => {
                assert_eq!(found, "old-scope");
            }
            other => panic!("expected ScopeMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_unit_isolated_encodes_both_outcomes() {
        let ok = run_unit_isolated(|| 42u64);
        assert_eq!(
            decode_unit::<u64>(&ok),
            Some(crate::trials::TrialOutcome::Ok(42))
        );
        let boom = run_unit_isolated::<u64>(|| panic!("kaput"));
        match decode_unit::<u64>(&boom) {
            Some(crate::trials::TrialOutcome::Panicked { message }) => {
                assert!(message.contains("kaput"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn chaos_spec_parses_per_slot() {
        // Not via env (tests run in parallel); exercise the parser shape
        // through from_env only for the attempt gate.
        assert!(Chaos::from_env(0, 1).is_none(), "respawns never misbehave");
    }

    #[test]
    fn config_auto_lease_sizing_is_sane() {
        let cfg = FabricConfig::new(4);
        assert_eq!(cfg.lease_len_for(0), 1);
        assert_eq!(cfg.lease_len_for(15), 1);
        assert_eq!(cfg.lease_len_for(160), 10);
        let fixed = FabricConfig {
            lease_len: Some(7),
            ..FabricConfig::new(4)
        };
        assert_eq!(fixed.lease_len_for(160), 7);
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let cmd = WorkerCommand {
            program: PathBuf::from("/nonexistent"),
            args: vec![],
        };
        let dir = temp_dir("zero");
        let cfg = FabricConfig::new(0);
        match run_fabric(4, &cmd, &dir, "s", &cfg, None) {
            Err(FabricError::NoWorkers) => {}
            other => panic!("expected NoWorkers, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_units_completes_without_spawning() {
        let cmd = WorkerCommand {
            program: PathBuf::from("/nonexistent-program-on-purpose"),
            args: vec![],
        };
        let dir = temp_dir("empty");
        let mut cfg = FabricConfig::new(2);
        cfg.verbose = false;
        let report = run_fabric(0, &cmd, &dir, "s", &cfg, None).expect("empty sweep");
        assert!(report.values.is_empty());
        assert_eq!(report.spawns, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! JSON-lines checkpoint store for resumable experiment sweeps.
//!
//! A [`Checkpoint`] is an append-only file of one JSON object per line,
//! `{"scope": ..., "index": ..., "value": ...}`, recording the result of
//! each finished trial. An interrupted sweep rerun with the same seed and
//! `--checkpoint` path reloads the file, skips every trial it already holds,
//! and recomputes only the rest — so the final `--json` report is
//! byte-identical to an uninterrupted run (provided the recorded values
//! round-trip exactly; keep them integer- and string-valued).
//!
//! The store tolerates a torn final line: a process killed mid-append leaves
//! a truncated record, which [`Checkpoint::open`] silently drops (that trial
//! is simply recomputed). Every record is flushed to the OS before
//! [`Checkpoint::record`] returns, so a killed process loses at most the one
//! record in flight. The journal is never `fsync`ed: a power loss may drop
//! the tail the OS had not yet written, and a resume recomputes those trials
//! — deterministically, so the final report is the same.
//!
//! Single-writer discipline is enforced, not assumed: `open` takes an OS
//! advisory lock on the file and a second concurrent `open` fails with
//! [`CheckpointError::Locked`] instead of interleaving half-lines into the
//! journal. The lock is released when the `Checkpoint` drops (or the
//! process dies — a SIGKILLed run never wedges the file).
//!
//! The `scope` string namespaces trial indices: experiments embed the
//! workload and grid coordinates (and the master seed) so that resuming with
//! different parameters never reuses stale results. [`Checkpoint::check_scope`]
//! turns drift into a typed [`CheckpointError::ScopeMismatch`] so callers can
//! refuse a stale journal loudly instead of silently recomputing everything.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::Value;

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file could not be read, locked, or appended.
    Io(std::io::Error),
    /// Another live process holds the advisory lock on this journal.
    Locked {
        /// The contested journal path.
        path: PathBuf,
    },
    /// The journal holds records for a scope the caller did not expect —
    /// config or seed drift since the journal was written.
    ScopeMismatch {
        /// The journal path.
        path: PathBuf,
        /// The first unexpected scope found in the journal.
        found: String,
        /// Every scope the caller considers valid.
        expected: Vec<String>,
    },
}

impl CheckpointError {
    /// A short machine-readable tag (`"io"`, `"locked"`, `"scope_mismatch"`)
    /// for JSON error surfaces.
    pub fn kind(&self) -> &'static str {
        match self {
            CheckpointError::Io(_) => "io",
            CheckpointError::Locked { .. } => "locked",
            CheckpointError::ScopeMismatch { .. } => "scope_mismatch",
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(err) => write!(f, "checkpoint I/O error: {err}"),
            CheckpointError::Locked { path } => write!(
                f,
                "checkpoint {} is locked by another process (concurrent open)",
                path.display()
            ),
            CheckpointError::ScopeMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {} holds records for scope {found:?}, which matches none of the {} \
                 scope(s) of this run — config or seed drift; use a fresh checkpoint path",
                path.display(),
                expected.len()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(err: std::io::Error) -> CheckpointError {
        CheckpointError::Io(err)
    }
}

/// An append-only JSON-lines store of per-trial results, safe to share
/// across rayon workers. Holds an OS advisory lock for its lifetime, so at
/// most one process writes a given journal at a time.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    entries: HashMap<(String, u64), Value>,
    writer: BufWriter<File>,
}

impl Checkpoint {
    /// Open (or create) the checkpoint file at `path`, loading every intact
    /// record already present.
    ///
    /// Malformed lines — a torn final line after a kill, or stray garbage —
    /// are skipped, not errors: the corresponding trials are recomputed. A
    /// later record for the same `(scope, index)` supersedes an earlier one.
    ///
    /// The append handle is advisory-locked *before* any record is read, so
    /// two processes can never interleave writes (or read a journal the
    /// other is mid-append on): the loser gets [`CheckpointError::Locked`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Locked`] if another process holds the journal;
    /// [`CheckpointError::Io`] if the file cannot be read or opened for
    /// append.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Checkpoint, CheckpointError> {
        use std::io::{Read, Seek, SeekFrom};

        let path = path.as_ref().to_path_buf();
        // Lock first, read second: once `try_lock` succeeds no other
        // Checkpoint can append, so the load below sees a quiescent file.
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => return Err(CheckpointError::Locked { path }),
            Err(TryLockError::Error(err)) => return Err(CheckpointError::Io(err)),
        }
        let mut entries = HashMap::new();
        // A killed writer can leave the file without a trailing newline; a
        // fresh append would then glue onto the torn fragment and corrupt
        // the new record too. Detect that and terminate the torn line first.
        let mut needs_newline = false;
        {
            let mut reader = File::open(&path)?;
            if reader.metadata()?.len() > 0 {
                reader.seek(SeekFrom::End(-1))?;
                let mut last = [0u8; 1];
                reader.read_exact(&mut last)?;
                needs_newline = last[0] != b'\n';
                reader.seek(SeekFrom::Start(0))?;
            }
            for line in BufReader::new(reader).lines() {
                let line = line?;
                if let Some((scope, index, value)) = parse_line(&line) {
                    entries.insert((scope, index), value);
                }
            }
        }
        let mut writer = BufWriter::new(file);
        if needs_newline {
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        Ok(Checkpoint {
            path,
            inner: Mutex::new(Inner { entries, writer }),
        })
    }

    /// The path this store appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of loaded + recorded entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("checkpoint lock").entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorded value for trial `index` of `scope`, if present.
    pub fn lookup(&self, scope: &str, index: u64) -> Option<Value> {
        self.inner
            .lock()
            .expect("checkpoint lock")
            .entries
            .get(&(scope.to_string(), index))
            .cloned()
    }

    /// Every distinct scope recorded in the journal, sorted.
    pub fn scopes(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("checkpoint lock");
        let mut scopes: Vec<String> = inner
            .entries
            .keys()
            .map(|(scope, _)| scope.clone())
            .collect();
        scopes.sort();
        scopes.dedup();
        scopes
    }

    /// Verify that every scope in the journal is one the caller expects.
    ///
    /// A resumable sweep passes the full set of scopes it can produce; a
    /// journal written by a run with different config or master seed then
    /// fails loudly instead of being silently ignored record-by-record.
    /// (A *subset* of expected scopes is fine — that is exactly what an
    /// interrupted run leaves behind.)
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ScopeMismatch`] naming the first stray scope.
    pub fn check_scope(&self, expected: &[String]) -> Result<(), CheckpointError> {
        for found in self.scopes() {
            if !expected.contains(&found) {
                return Err(CheckpointError::ScopeMismatch {
                    path: self.path.clone(),
                    found,
                    expected: expected.to_vec(),
                });
            }
        }
        Ok(())
    }

    /// Append one record and flush it to the OS before returning, so a kill
    /// after `record` never loses the trial (see the module docs for power
    /// loss).
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] if the append or flush fails.
    pub fn record(&self, scope: &str, index: u64, value: Value) -> std::io::Result<()> {
        let line = serde_json::to_string(&Value::Object(vec![
            ("scope".to_string(), Value::String(scope.to_string())),
            ("index".to_string(), Value::U64(index)),
            ("value".to_string(), value.clone()),
        ]))
        .expect("checkpoint records serialize infallibly");
        let mut inner = self.inner.lock().expect("checkpoint lock");
        inner.writer.write_all(line.as_bytes())?;
        inner.writer.write_all(b"\n")?;
        inner.writer.flush()?;
        inner.entries.insert((scope.to_string(), index), value);
        Ok(())
    }
}

/// Parse one checkpoint line; `None` for anything malformed (torn tail,
/// wrong shape).
fn parse_line(line: &str) -> Option<(String, u64, Value)> {
    if line.trim().is_empty() {
        return None;
    }
    let v: Value = serde_json::from_str(line).ok()?;
    let scope = v.get("scope")?.as_str().ok()?.to_string();
    let index = match v.get("index")? {
        Value::U64(i) => *i,
        _ => return None,
    };
    let value = v.get("value")?.clone();
    Some((scope, index, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "lcl-checkpoint-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    #[test]
    fn record_then_reopen_round_trips() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let ckpt = Checkpoint::open(&path).expect("open");
            assert!(ckpt.is_empty());
            ckpt.record("e13/drop=0.1", 0, Value::U64(7)).expect("rec");
            ckpt.record("e13/drop=0.1", 2, Value::Bool(true))
                .expect("rec");
            ckpt.record("e13/drop=0.2", 0, Value::String("x".into()))
                .expect("rec");
            assert_eq!(ckpt.len(), 3);
            assert_eq!(ckpt.lookup("e13/drop=0.1", 0), Some(Value::U64(7)));
        }
        let again = Checkpoint::open(&path).expect("reopen");
        assert_eq!(again.len(), 3);
        assert_eq!(again.lookup("e13/drop=0.1", 0), Some(Value::U64(7)));
        assert_eq!(again.lookup("e13/drop=0.1", 2), Some(Value::Bool(true)));
        assert_eq!(
            again.lookup("e13/drop=0.2", 0),
            Some(Value::String("x".into()))
        );
        assert_eq!(again.lookup("e13/drop=0.1", 1), None);
        assert_eq!(again.lookup("other", 0), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_not_fatal() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let ckpt = Checkpoint::open(&path).expect("open");
            ckpt.record("s", 0, Value::U64(1)).expect("rec");
            ckpt.record("s", 1, Value::U64(2)).expect("rec");
        }
        // Simulate a SIGKILL mid-append: truncate the last line.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.len() - 8;
        std::fs::write(&path, &text[..cut]).expect("truncate");
        let ckpt = Checkpoint::open(&path).expect("reopen survives torn tail");
        assert_eq!(ckpt.lookup("s", 0), Some(Value::U64(1)));
        assert_eq!(ckpt.lookup("s", 1), None, "torn record is recomputed");
        // The store keeps accepting appends after the torn line.
        ckpt.record("s", 1, Value::U64(3)).expect("rec");
        drop(ckpt);
        let again = Checkpoint::open(&path).expect("reopen");
        assert_eq!(again.lookup("s", 1), Some(Value::U64(3)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn later_duplicate_record_wins() {
        let path = temp_path("dup");
        let _ = std::fs::remove_file(&path);
        {
            let ckpt = Checkpoint::open(&path).expect("open");
            ckpt.record("s", 5, Value::U64(10)).expect("rec");
            ckpt.record("s", 5, Value::U64(20)).expect("rec");
            assert_eq!(ckpt.lookup("s", 5), Some(Value::U64(20)));
        }
        let again = Checkpoint::open(&path).expect("reopen");
        assert_eq!(again.lookup("s", 5), Some(Value::U64(20)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_lines_are_skipped() {
        let path = temp_path("garbage");
        // Nested far past the JSON reader's depth cap: skipped, not a
        // stack overflow.
        let deep = format!("{}{}", "[".repeat(50_000), "]".repeat(50_000));
        std::fs::write(
            &path,
            format!(
                "not json\n{{\"scope\": \"s\", \"index\": 1, \"value\": 4}}\n{{\"scope\": 3}}\n\n{deep}\n"
            ),
        )
        .expect("write");
        let ckpt = Checkpoint::open(&path).expect("open");
        assert_eq!(ckpt.len(), 1);
        assert_eq!(ckpt.lookup("s", 1), Some(Value::U64(4)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn long_string_record_loads_in_linear_time() {
        // A 1 MB string value: re-validating the rest of the line for every
        // character (quadratic) would take minutes; one pass takes
        // milliseconds.
        let path = temp_path("long");
        let body: String = "añ€𝄞".chars().cycle().take(440_000).collect();
        assert!(body.len() > 1 << 20);
        let line = format!("{{\"scope\": \"s\", \"index\": 0, \"value\": \"{body}\"}}\n");
        std::fs::write(&path, line).expect("write");
        let start = std::time::Instant::now();
        let ckpt = Checkpoint::open(&path).expect("open");
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
        assert_eq!(ckpt.lookup("s", 0), Some(Value::String(body)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_open_is_a_typed_locked_error() {
        let path = temp_path("flock");
        let _ = std::fs::remove_file(&path);
        let first = Checkpoint::open(&path).expect("first open");
        match Checkpoint::open(&path) {
            Err(CheckpointError::Locked { path: p }) => assert_eq!(p, path),
            other => panic!("expected Locked, got {other:?}"),
        }
        // Releasing the first handle releases the lock.
        drop(first);
        let again = Checkpoint::open(&path).expect("open after release");
        again.record("s", 0, Value::U64(1)).expect("rec");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scopes_are_sorted_and_deduped() {
        let path = temp_path("scopes");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path).expect("open");
        ckpt.record("b", 0, Value::U64(1)).expect("rec");
        ckpt.record("a", 0, Value::U64(2)).expect("rec");
        ckpt.record("b", 1, Value::U64(3)).expect("rec");
        assert_eq!(ckpt.scopes(), vec!["a".to_string(), "b".to_string()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn check_scope_accepts_subsets_and_rejects_drift() {
        let path = temp_path("scopecheck");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path).expect("open");
        assert!(ckpt.check_scope(&[]).is_ok(), "empty journal matches all");
        ckpt.record("run/seed=1/p=0.1", 0, Value::U64(1))
            .expect("rec");
        let expected = vec![
            "run/seed=1/p=0.1".to_string(),
            "run/seed=1/p=0.2".to_string(),
        ];
        assert!(
            ckpt.check_scope(&expected).is_ok(),
            "partial journal is a valid resume"
        );
        // Same journal against a different seed's scope set: typed error.
        let drifted = vec!["run/seed=2/p=0.1".to_string()];
        match ckpt.check_scope(&drifted) {
            Err(CheckpointError::ScopeMismatch { found, .. }) => {
                assert_eq!(found, "run/seed=1/p=0.1");
            }
            other => panic!("expected ScopeMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

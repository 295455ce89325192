//! Where completed traces go.

use crate::event::TraceEvent;
use serde::Deserialize;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// A consumer of trace events.
///
/// Sinks are driven single-threaded and in trial order (the trial harness
/// buffers per-trial events and flushes them after the parallel run), so
/// implementations never need interior synchronization.
pub trait TraceSink {
    /// Consume one event.
    fn record(&mut self, event: &TraceEvent);

    /// Push any buffered output to its destination.
    fn flush(&mut self) {}
}

/// Discards everything. Producers hold an [`crate::Obs`] handle, so a
/// disabled trace never even reaches a sink — `NullSink` exists for call sites that want an
/// unconditional `&mut dyn TraceSink`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// Collects events in memory, in arrival order.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The collected events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the sink, keeping the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Writes events as buffered JSON lines (one event per line).
#[derive(Debug)]
pub struct FileSink {
    out: BufWriter<File>,
}

impl FileSink {
    /// Create (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(FileSink {
            out: BufWriter::new(File::create(path)?),
        })
    }
}

impl TraceSink for FileSink {
    fn record(&mut self, event: &TraceEvent) {
        let line = serde_json::to_string(event).expect("trace events always serialize");
        // Trace output is best-effort telemetry: an I/O error here must not
        // abort the experiment producing it.
        let _ = writeln!(self.out, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Why a trace file failed to read back.
#[derive(Debug)]
pub enum TraceReadError {
    /// The file could not be opened or read.
    Io(std::io::Error),
    /// A line was not a valid trace event.
    Line {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read error: {e}"),
            TraceReadError::Line { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceReadError {}

/// Read a JSON-lines trace file back into events, validating every line
/// against the schema.
///
/// # Errors
///
/// [`TraceReadError::Io`] on I/O failure, [`TraceReadError::Line`] (with the
/// 1-based line number) on the first malformed line.
pub fn read_trace(path: &Path) -> Result<Vec<TraceEvent>, TraceReadError> {
    let file = File::open(path).map_err(TraceReadError::Io)?;
    let mut events = Vec::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(TraceReadError::Io)?;
        if line.is_empty() {
            continue;
        }
        let event = TraceEvent::from_str_line(&line).map_err(|message| TraceReadError::Line {
            line: i + 1,
            message,
        })?;
        events.push(event);
    }
    Ok(events)
}

impl TraceEvent {
    /// Parse one JSON line into an event.
    fn from_str_line(line: &str) -> Result<TraceEvent, String> {
        let value: serde::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        TraceEvent::from_value(&value).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventData;

    fn event(seq: u64) -> TraceEvent {
        TraceEvent {
            trial: 2,
            seq,
            data: EventData::SpanStart {
                name: format!("s{seq}"),
            },
        }
    }

    #[test]
    fn memory_sink_preserves_order() {
        let mut sink = MemorySink::new();
        for s in 0..4 {
            sink.record(&event(s));
        }
        assert_eq!(sink.events().len(), 4);
        assert_eq!(sink.events()[3], event(3));
    }

    #[test]
    fn file_sink_round_trips_through_read_trace() {
        let mut path = std::env::temp_dir();
        path.push(format!("lcl-obs-sink-{}.jsonl", std::process::id()));
        {
            let mut sink = FileSink::create(&path).unwrap();
            for s in 0..3 {
                sink.record(&event(s));
            }
            sink.flush();
        }
        let events = read_trace(&path).unwrap();
        assert_eq!(events, vec![event(0), event(1), event(2)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_lines_carry_their_line_number() {
        let mut path = std::env::temp_dir();
        path.push(format!("lcl-obs-bad-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"trial\":0,\"seq\":0,\"event\":\"span_start\",\"name\":\"a\"}\nnot json\n",
        )
        .unwrap();
        match read_trace(&path).unwrap_err() {
            TraceReadError::Line { line, .. } => assert_eq!(line, 2),
            other => panic!("expected line error, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}

//! Mutation fuzzing of the typed parse paths.
//!
//! Everything the lab reads back — checkpoint journals, the pinned
//! adversary artifacts, fault plans and trace lines — goes through the
//! vendored `serde_json` reader and then a typed `from_value`. Whatever the
//! bytes, that must end in a typed `Ok` or `Err`, never a panic or an
//! abort. This test takes one valid input of each kind, mutates it
//! (truncation, a byte flip, a splice of nesting deeper than the reader's
//! 128-level cap, a number swapped for a huge or exponent form) and feeds
//! the result through the same parse path the input's reader uses.

use local_algorithms::RecoveryPolicy;
use local_model::{FaultPlan, FaultSpec};
use local_obs::{Trace, TraceEvent};
use local_separation::workloads::{workloads, HealRecord, Sizes};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// The kinds of input the lab parses.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// One checkpoint journal line holding an E13 trial record.
    Checkpoint,
    /// A pinned `results/adversaries/*.json` artifact.
    Artifact,
    /// A serialized fault plan.
    Plan,
    /// One trace line.
    TraceLine,
}

/// Valid inputs of every kind: a real E13-style heal trial supplies the
/// checkpoint record, its fault plan and its trace lines.
fn corpus() -> &'static [(Kind, String)] {
    static CORPUS: OnceLock<Vec<(Kind, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let sizes = Sizes {
            tree_n: 40,
            sinkless_n: 16,
            mis_n: 16,
        };
        let catalog = workloads(&sizes, 5);
        let w = catalog[2].as_ref().expect("the MIS graph builds");
        let spec = FaultSpec::none()
            .with_drop(0.2)
            .with_crash(0.2, w.crash_window());
        let plan = FaultPlan::sample(w.graph(), &spec, 9);
        let trace = Trace::new(3);
        let record = w.heal(9, &plan, &RecoveryPolicy::default(), Some(&trace));
        let line = Value::Object(vec![
            ("scope".into(), Value::String("e13/mis".into())),
            ("index".into(), Value::U64(4)),
            ("value".into(), record.to_value()),
        ]);
        let mut corpus = vec![
            (Kind::Checkpoint, to_json(&line)),
            (Kind::Plan, to_json(&plan)),
        ];
        corpus.extend(
            trace
                .into_events()
                .iter()
                .map(|e| (Kind::TraceLine, to_json(e))),
        );
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/adversaries");
        let mut artifacts: Vec<_> = std::fs::read_dir(dir)
            .expect("the pinned artifacts are checked in")
            .map(|e| e.expect("readable entry").path())
            .collect();
        artifacts.sort();
        corpus.extend(artifacts.iter().map(|p| {
            let text = std::fs::read_to_string(p).expect("readable artifact");
            (Kind::Artifact, text)
        }));
        corpus
    })
}

fn to_json<T: Serialize>(x: &T) -> String {
    serde_json::to_string(x).expect("values serialize infallibly")
}

/// Parse `text` the way the lab reads an input of `kind`: the JSON reader,
/// then the typed `from_value`s of the fields its reader consumes.
fn parse(kind: Kind, text: &str) -> Result<(), serde_json::Error> {
    let v: Value = serde_json::from_str(text)?;
    match kind {
        Kind::Checkpoint => {
            v.field("scope")?.as_str()?;
            u64::from_value(v.field("index")?)?;
            HealRecord::from_value(v.field("value")?)?;
        }
        Kind::Artifact => {
            u64::from_value(v.field("search")?.field("search_seed")?)?;
            u64::from_value(v.field("score")?)?;
            FaultPlan::from_value(v.field("plan")?)?;
        }
        Kind::Plan => {
            FaultPlan::from_value(&v)?;
        }
        Kind::TraceLine => {
            TraceEvent::from_value(&v)?;
        }
    }
    Ok(())
}

/// Out-of-range numbers: huge, exponent forms and a negative.
const HUGE: [&str; 6] = [
    "5e9",
    "1e30",
    "1e400",
    "18446744073709551616",
    "-1",
    "99999999999999999999999999999999999999999",
];

/// The byte offsets where a top-level value or an object member's value
/// begins: 0, and just past every `":` whose quote closes a key.
fn value_starts(text: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut starts = vec![0];
    for i in 1..bytes.len() {
        let escapes = bytes[..i - 1]
            .iter()
            .rev()
            .take_while(|&&b| b == b'\\')
            .count();
        if bytes[i] == b':' && bytes[i - 1] == b'"' && escapes % 2 == 0 {
            starts.push(i + 1);
        }
    }
    starts
}

/// Replace the `k`-th digit run of `text` (counted modulo the number of
/// runs) with `with`.
fn swap_number(text: &str, k: usize, with: &str) -> String {
    let bytes = text.as_bytes();
    let runs: Vec<(usize, usize)> = {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i].is_ascii_digit() {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || b".eE+-".contains(&bytes[i]))
                {
                    i += 1;
                }
                runs.push((start, i));
            } else {
                i += 1;
            }
        }
        runs
    };
    let Some(&(start, end)) = runs.get(k % runs.len().max(1)) else {
        return text.to_string();
    };
    format!("{}{with}{}", &text[..start], &text[end..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Every mutated input parses to a typed `Ok` or `Err`: no panic, and
    /// a splice nested past the reader's cap is always an error.
    #[test]
    fn mutated_inputs_fail_with_typed_errors(
        pick in 0usize..1_000_000,
        mutation in 0u8..4,
        at in 0usize..1_000_000,
        mask in 1u8..255,
        depth in 129usize..400,
    ) {
        let corpus = corpus();
        let (kind, text) = &corpus[pick % corpus.len()];
        prop_assert!(parse(*kind, text).is_ok(), "{kind:?} parses unmutated");
        let cut = at % (text.len() + 1);
        let mutated = match mutation {
            0 => text.as_bytes()[..cut].to_vec(),
            1 => {
                let mut bytes = text.as_bytes().to_vec();
                if let Some(b) = bytes.get_mut(cut) {
                    *b ^= mask;
                }
                bytes
            }
            2 => {
                // Splice in front of a value, so the reader must descend.
                let starts = value_starts(text);
                let cut = starts[at % starts.len()];
                let nest = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
                [&text.as_bytes()[..cut], nest.as_bytes(), &text.as_bytes()[cut..]].concat()
            }
            _ => swap_number(text, at, HUGE[usize::from(mask) % HUGE.len()]).into_bytes(),
        };
        // A flip can break UTF-8; the lab reads text, so lossy decoding is
        // what a reader of a corrupted file would hand the parser.
        let mutated = String::from_utf8_lossy(&mutated);
        let parsed = parse(*kind, &mutated);
        if mutation == 2 {
            let err = parsed.expect_err("a splice past the cap must not parse");
            prop_assert!(err.0.contains("nesting deeper than"), "{kind:?}: {err}");
        }
    }
}

//! Property tests of the trace plane's determinism guarantee.
//!
//! The observability contract (README §Observability) is that a trace is a
//! pure function of the experiment's seeds: the event stream a sink receives
//! is bit-identical no matter how many rayon workers executed the batch.
//! [`TrialPlan::run_with_trace`] buffers each trial's events privately and
//! drains them in trial order, so the guarantee holds *by construction* —
//! these tests pin it down against the ground truth of a plain sequential
//! loop (exactly what a one-thread pool would produce).

use local_model::{Action, Engine, ExecSpec, Mode, NodeInit, NodeIo, NodeProgram, Protocol};
use local_obs::{MemorySink, Trace, TraceSink};
use local_separation::trials::{Trial, TrialOutcome, TrialPlan, TrialSpec};
use proptest::prelude::*;

/// A small protocol with data-dependent halting so different trials emit
/// different numbers of round events.
struct Pulse {
    fuel: u32,
}

impl NodeProgram for Pulse {
    type Msg = u64;
    type Output = u64;
    fn step(&mut self, round: u32, io: &mut NodeIo<'_, u64>) -> Action<u64> {
        let heard: u64 = io.received().map(|(_, &m)| m).sum();
        if io.is_randomized() {
            self.fuel = self.fuel.saturating_sub((io.rng().next_u64() % 2) as u32);
        }
        if round >= self.fuel {
            Action::Halt(heard)
        } else {
            io.broadcast(heard.wrapping_add(u64::from(round)));
            Action::Continue
        }
    }
}

struct PulseProtocol;
impl Protocol for PulseProtocol {
    type Node = Pulse;
    fn create(&self, init: &NodeInit<'_>) -> Pulse {
        Pulse {
            fuel: 1 + (init.degree as u32 % 3),
        }
    }
}

/// One traced trial: a full engine run (with per-round events and the
/// engine's message/halt histograms) against a seed-derived ring.
fn traced_trial(trial: Trial, trace: Option<&Trace>) -> u64 {
    let n = 4 + (trial.seed % 5) as usize;
    let g = local_graphs::gen::cycle(n);
    let run = Engine::new(&g, Mode::randomized(trial.seed))
        .execute(&ExecSpec::default().traced(trace), &PulseProtocol);
    run.stats.messages_sent
}

/// Run the batch through the unified entry point with a trace attached,
/// unwrapping the (never-panicking) outcomes back to plain results.
fn traced_batch(plan: &TrialPlan, sink: &mut MemorySink) -> Vec<u64> {
    plan.execute(TrialSpec::new().traced(Some(sink)), traced_trial)
        .into_iter()
        .map(TrialOutcome::into_ok)
        .collect()
}

/// The ground truth: the same batch executed by a plain sequential loop,
/// draining each trial's buffer as soon as it finishes — byte for byte what
/// a one-thread pool produces.
fn serial_reference(plan: &TrialPlan, sink: &mut MemorySink) -> Vec<u64> {
    let mut results = Vec::new();
    for index in 0..plan.trials() {
        let trial = Trial {
            index,
            seed: plan.seed(index),
        };
        let trace = Trace::new(index);
        results.push(traced_trial(trial, Some(&trace)));
        trace.drain_into(sink);
    }
    sink.flush();
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The parallel harness and the sequential reference must hand the sink
    /// the *same bytes*: same events, same order, same (trial, seq) stamps.
    #[test]
    fn parallel_trace_is_bit_identical_to_serial(trials in 1u64..12, master_seed in 0u64..500) {
        let plan = TrialPlan::new(trials, master_seed);

        let mut parallel = MemorySink::new();
        let par_results = traced_batch(&plan, &mut parallel);

        let mut serial = MemorySink::new();
        let ser_results = serial_reference(&plan, &mut serial);

        prop_assert_eq!(par_results, ser_results);
        prop_assert_eq!(parallel.events(), serial.events());
    }

    /// Repeated parallel runs of the same plan are bit-identical to each
    /// other — no scheduling artifact ever leaks into the stream.
    #[test]
    fn repeated_parallel_traces_are_bit_identical(trials in 1u64..12, master_seed in 0u64..500) {
        let plan = TrialPlan::new(trials, master_seed);
        let mut a = MemorySink::new();
        traced_batch(&plan, &mut a);
        let mut b = MemorySink::new();
        traced_batch(&plan, &mut b);
        prop_assert_eq!(a.events(), b.events());
    }

    /// Tracing must not perturb results: the traced batch returns exactly
    /// what the untraced batch returns.
    #[test]
    fn tracing_does_not_change_results(trials in 1u64..12, master_seed in 0u64..500) {
        let plan = TrialPlan::new(trials, master_seed);
        let untraced: Vec<u64> = plan
            .execute(TrialSpec::new(), |t, _| traced_trial(t, None))
            .into_iter()
            .map(TrialOutcome::into_ok)
            .collect();
        let mut sink = MemorySink::new();
        let traced = traced_batch(&plan, &mut sink);
        prop_assert_eq!(untraced, traced);
    }
}

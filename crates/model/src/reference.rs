//! A deliberately simple baseline engine for differential testing.
//!
//! [`run_reference`] executes a protocol with per-node `Vec` inboxes and
//! outboxes allocated every sweep and messages *cloned* on delivery — the
//! straightforward implementation the arena engine ([`crate::Engine`])
//! replaced. It is kept (sequential only, no parallel path) so property
//! tests and benchmarks can check that the optimized message plane is
//! observably equivalent: same outputs, same halt rounds, same
//! `messages_sent`, same sweep count, for any protocol and seed.

use crate::engine::{splitmix64, Mode, Run, RunStats};
use crate::error::SimError;
use crate::node::{Action, NodeInit, NodeIo, NodeProgram, Protocol};
use crate::params::GlobalParams;
use local_graphs::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Run `protocol` on `g` under `mode` with the baseline message plane.
///
/// Semantics (round numbering, halting, message accounting, round limit,
/// RNG derivation) match [`crate::Engine::execute`] exactly; only the internal
/// data layout differs.
///
/// # Errors
///
/// [`SimError::RoundLimitExceeded`] if live nodes remain after `max_rounds`
/// sweeps.
pub fn run_reference<P>(
    g: &Graph,
    mode: &Mode,
    protocol: &P,
    params: &GlobalParams,
    max_rounds: u32,
) -> Result<Run<<P::Node as NodeProgram>::Output>, SimError>
where
    P: Protocol,
{
    let n = g.n();
    let ids: Option<Vec<u64>> = match mode {
        Mode::Deterministic { ids } => Some(ids.assign(g)),
        Mode::Randomized { .. } => None,
    };
    let seed = match mode {
        Mode::Randomized { seed } => Some(*seed),
        Mode::Deterministic { .. } => None,
    };

    struct RefSlot<N, M, O> {
        state: N,
        rng: Option<ChaCha8Rng>,
        id: Option<u64>,
        out: Vec<Option<M>>,
        done: Option<(u32, O)>,
        sent: u64,
    }
    type SlotsOf<P> = Vec<
        RefSlot<
            <P as Protocol>::Node,
            <<P as Protocol>::Node as NodeProgram>::Msg,
            <<P as Protocol>::Node as NodeProgram>::Output,
        >,
    >;

    let mut slots: SlotsOf<P> = (0..n)
        .map(|v| {
            let id = ids.as_ref().map(|ids| ids[v]);
            let init = NodeInit {
                node: v,
                degree: g.degree(v),
                id,
                params,
            };
            RefSlot {
                state: protocol.create(&init),
                rng: seed
                    .map(|s| ChaCha8Rng::seed_from_u64(splitmix64(s ^ splitmix64(v as u64 + 1)))),
                id,
                out: Vec::new(),
                done: None,
                sent: 0,
            }
        })
        .collect();

    let mut live = n;
    let mut sweep: u32 = 0;
    let mut live_per_round: Vec<usize> = Vec::new();
    let mut messages_per_round: Vec<u64> = Vec::new();
    let mut prev_out: Vec<Vec<Option<<P::Node as NodeProgram>::Msg>>> = Vec::new();

    while live > 0 {
        if sweep >= max_rounds {
            return Err(SimError::RoundLimitExceeded {
                limit: max_rounds,
                live_nodes: live,
                live_sample: slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.done.is_none())
                    .map(|(v, _)| v)
                    .take(SimError::LIVE_SAMPLE_CAP)
                    .collect(),
            });
        }
        live_per_round.push(live);
        messages_per_round.push(0);
        prev_out.clear();
        prev_out.extend(slots.iter_mut().map(|s| std::mem::take(&mut s.out)));
        let round = sweep;

        for (v, slot) in slots.iter_mut().enumerate() {
            if slot.done.is_some() {
                continue;
            }
            let deg = g.degree(v);
            let mut inbox: Vec<Option<<P::Node as NodeProgram>::Msg>> = if round == 0 {
                (0..deg).map(|_| None).collect()
            } else {
                g.neighbors(v)
                    .iter()
                    .map(|nb| {
                        prev_out
                            .get(nb.node)
                            .and_then(|o| o.get(nb.back_port))
                            .cloned()
                            .flatten()
                    })
                    .collect()
            };
            let mut out: Vec<Option<<P::Node as NodeProgram>::Msg>> =
                (0..deg).map(|_| None).collect();
            let action = {
                let mut io = NodeIo {
                    degree: deg,
                    id: slot.id,
                    params,
                    inbox: &mut inbox,
                    outbox: &mut out,
                    rng: slot.rng.as_mut(),
                };
                slot.state.step(round, &mut io)
            };
            let sent_now = out.iter().filter(|m| m.is_some()).count() as u64;
            slot.sent += sent_now;
            *messages_per_round.last_mut().expect("pushed this sweep") += sent_now;
            slot.out = out;
            if let Action::Halt(o) = action {
                slot.done = Some((round, o));
            }
        }

        live = slots.iter().filter(|s| s.done.is_none()).count();
        sweep += 1;
    }

    let mut outputs = Vec::with_capacity(n);
    let mut halt_rounds = Vec::with_capacity(n);
    let mut rounds = 0;
    let mut messages_sent = 0u64;
    for slot in slots {
        messages_sent += slot.sent;
        let (r, o) = slot.done.expect("loop exits only when all halted");
        rounds = rounds.max(r);
        halt_rounds.push(r);
        outputs.push(o);
    }
    Ok(Run {
        outputs,
        rounds,
        halt_rounds,
        stats: RunStats {
            messages_sent,
            sweeps: sweep,
            live_per_round,
            messages_per_round,
        },
    })
}

//! Theorem 10: randomized Δ-coloring of trees by ColorBidding + Filtering.
//!
//! Phase 1 (`O(log* Δ)` bidding iterations) colors vertices from the main
//! palette `{0, …, Δ−r−1}` (`r = ⌈√Δ⌉` colors stay reserved): each iteration
//! every participating vertex bids a random color subset `S_v` of its
//! remaining palette and keeps a color in `S_v \ ⋃_{u∈N_i(v)} S_u`.
//! Vertices whose palette/degree invariants break are *filtered* (marked
//! bad) and sit out. Phase 2 colors the bad vertices: w.h.p. their connected
//! components have size `O(Δ⁴ log n)` (the shattering lemma, measured by
//! experiment E2), so the deterministic Theorem 9 algorithm
//! ([`be_forest_coloring`]) `r`-colors them with the reserved palette in
//! `O(log_Δ log n + log* n)` rounds. Phase 2 simulates only the subgraph
//! the bad vertices induce, so its cost follows the shattered remainder.
//!
//! Each vertex keeps its remaining palette and its bid as 128-color bitsets
//! over the main palette (so `Δ ≤ 140`); bits are visited in ascending
//! color order, the order of the paper's lists.
//!
//! Constants: the paper's analysis uses `c_1 = 1`,
//! `c_{i+1} = min(Δ^0.1, c_i·exp(c_i / (3·200·e²⁰⁰)))` and palette margin
//! `Δ/200` — values chosen to make Chernoff bounds go through for enormous
//! Δ, under which the growth would be invisible at practical scales. The
//! implementation keeps the same *functional form* with configurable
//! constants ([`Theorem10Config`]) whose defaults make the doubly-exponential
//! growth (and hence the `O(log* Δ)` iteration count) observable; this is
//! documented as a substitution in DESIGN.md.

use crate::color::{be_forest_coloring, ColoringOutcome, UNCOLORED};
use crate::sync::{run_sync, SyncAlgorithm, SyncCtx, SyncRun, SyncStep};
use local_graphs::Graph;
use local_lcl::Labeling;
use local_model::{derived_rng, Budget, ExecSpec, Mode, NodeInit, SimError};
use local_obs::Trace;
use rand::Rng;

/// Tunable constants of the Phase-1 schedule.
#[derive(Debug, Clone, Copy)]
pub struct Theorem10Config {
    /// Growth constant `K` in `c_{i+1} = c_i · exp(c_i / K)` (paper:
    /// `3·200·e²⁰⁰`; practical default 3).
    pub growth_k: f64,
    /// Exponent `γ` in the cap `c_i ≤ Δ^γ` (paper: 0.1; practical default
    /// 0.5 so the cap is reachable at small Δ).
    pub cap_exponent: f64,
    /// Palette-margin fraction `f`: the round-1 filter marks `v` bad when
    /// `|Ψ₂(v)| − |N₂'(v)| < f·Δ` (paper: `f = 1/200`; default `1/8`).
    pub palette_margin: f64,
}

impl Default for Theorem10Config {
    fn default() -> Self {
        Theorem10Config {
            growth_k: 3.0,
            cap_exponent: 0.5,
            palette_margin: 1.0 / 8.0,
        }
    }
}

impl Theorem10Config {
    /// The schedule `c_1, …, c_t` for maximum degree `delta` (`c_t` is the
    /// first value to reach the cap `Δ^γ`).
    pub fn schedule(&self, delta: usize) -> Vec<f64> {
        let cap = (delta as f64).powf(self.cap_exponent).max(1.0);
        let mut cs = vec![1.0f64];
        loop {
            let c = *cs.last().expect("nonempty");
            if c >= cap {
                break;
            }
            let next = (c * (c / self.growth_k).exp()).min(cap);
            if (next - c).abs() < 1e-12 {
                cs.push(cap);
                break;
            }
            cs.push(next);
        }
        cs
    }

    /// Phase 1's round budget for maximum degree `delta`: `2t + 4` rounds
    /// for a `t`-entry schedule.
    pub fn phase1_budget(&self, delta: usize) -> u32 {
        schedule_budget(&self.schedule(delta))
    }
}

/// The `2t + 4` round budget of a `t`-entry Phase-1 schedule.
fn schedule_budget(schedule: &[f64]) -> u32 {
    2 * schedule.len() as u32 + 4
}

/// Phase 1's main palette `Δ − ⌈√Δ⌉`: the top `⌈√Δ⌉` colors stay reserved
/// for Phase 2.
pub fn main_palette(delta: usize) -> usize {
    delta - (delta as f64).sqrt().ceil() as usize
}

/// Colors a vertex's palette bitset can hold: Phase 1 needs
/// `Δ − ⌈√Δ⌉ ≤ 128`, i.e. `Δ ≤ 140`.
const MAX_MAIN_PALETTE: usize = Palette::BITS as usize;

/// A set of main-palette colors: bit `c` is color `c`.
type Palette = u128;

/// Phase-1 status of a vertex: a plain value, so broadcasting it to every
/// port copies bits instead of allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
enum P1State {
    /// Still bidding: the remaining palette and this iteration's bid (empty
    /// between a resolve and the next bid).
    Active { palette: Palette, bid: Palette },
    /// Permanently colored from the main palette.
    Colored(usize),
    /// Filtered out; waits for Phase 2.
    Bad,
}

/// Phase 1 as one protocol. Round `2i−1` prunes palettes, applies iteration
/// `i−1`'s filter, and bids for iteration `i`; round `2i` resolves bids.
/// Round `2t+1` marks every survivor bad (the paper's `i = t` filter).
struct Phase1 {
    main_palette: usize,
    delta: usize,
    schedule: Vec<f64>,
    margin: f64,
}

impl SyncAlgorithm for Phase1 {
    type State = P1State;
    /// `Some(color)` if colored in Phase 1, `None` if bad.
    type Output = Option<usize>;

    fn init(&self, _init: &NodeInit<'_>) -> P1State {
        P1State::Active {
            palette: Palette::MAX >> (MAX_MAIN_PALETTE - self.main_palette),
            bid: 0,
        }
    }

    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        state: &P1State,
        neighbors: &[P1State],
    ) -> SyncStep<P1State, Option<usize>> {
        let (mut palette, bid) = match *state {
            P1State::Colored(c) => return SyncStep::Decide(P1State::Colored(c), Some(c)),
            P1State::Bad => return SyncStep::Decide(P1State::Bad, None),
            P1State::Active { palette, bid } => (palette, bid),
        };
        let t = self.schedule.len() as u32;
        if round % 2 == 1 {
            // --- maintenance ---
            let i = round.div_ceil(2); // iteration about to bid
            let mut live_degree = 0;
            for nb in neighbors {
                match *nb {
                    P1State::Colored(c) => palette &= !(1 << c),
                    P1State::Active { .. } => live_degree += 1,
                    P1State::Bad => {}
                }
            }
            let palette_size = palette.count_ones() as usize;
            // --- filtering for the completed iteration i−1 ---
            if i >= 2 {
                let completed = i - 1;
                let bad = if completed == 1 {
                    (palette_size as f64) - (live_degree as f64) < self.margin * self.delta as f64
                } else if completed < t {
                    // degree cap Δ/c_{completed+1}; schedule is 0-indexed so
                    // c_{completed+1} = schedule[completed].
                    live_degree as f64 > self.delta as f64 / self.schedule[completed as usize]
                } else {
                    // completed == t: everyone remaining is bad.
                    true
                };
                if bad {
                    return SyncStep::Decide(P1State::Bad, None);
                }
            }
            if palette_size == 0 {
                return SyncStep::Decide(P1State::Bad, None);
            }
            // --- bid for iteration i: random draws visit the available
            // colors in ascending order ---
            debug_assert!(i <= t, "round past the schedule implies Bad above");
            let c_i = self.schedule[(i - 1) as usize];
            let mut bid: Palette = 0;
            if c_i <= 1.0 {
                let k = ctx.rng().gen_range(0..palette_size as u64);
                let mut rest = palette;
                for _ in 0..k {
                    rest &= rest - 1;
                }
                bid = rest & rest.wrapping_neg();
            } else {
                let p = (c_i / palette_size as f64).min(1.0);
                let mut rest = palette;
                while rest != 0 {
                    let lowest = rest & rest.wrapping_neg();
                    if ctx.rng().gen::<f64>() < p {
                        bid |= lowest;
                    }
                    rest ^= lowest;
                }
            }
            SyncStep::Continue(P1State::Active { palette, bid })
        } else {
            // --- resolve: keep the lowest bid color no neighbor bid ---
            let contested = neighbors.iter().fold(0, |acc, nb| match *nb {
                P1State::Active { bid, .. } => acc | bid,
                _ => acc,
            });
            let free = bid & !contested;
            if free == 0 {
                SyncStep::Continue(P1State::Active { palette, bid: 0 })
            } else {
                let c = free.trailing_zeros() as usize;
                SyncStep::Decide(P1State::Colored(c), Some(c))
            }
        }
    }
}

/// Statistics from a Theorem-10 run (experiment E2 reads these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShatterStats {
    /// Number of bad (filtered) vertices after Phase 1.
    pub bad_vertices: usize,
    /// Number of connected components induced by bad vertices.
    pub bad_components: usize,
    /// Size of the largest bad component.
    pub largest_bad_component: usize,
}

/// The outcome of the full Theorem-10 pipeline.
#[derive(Debug, Clone)]
pub struct Theorem10Outcome {
    /// The Δ-coloring (palette `0..Δ`).
    pub coloring: ColoringOutcome,
    /// Phase-1 round count.
    pub phase1_rounds: u32,
    /// Phase-2 round count.
    pub phase2_rounds: u32,
    /// Shattering statistics.
    pub stats: ShatterStats,
}

/// Run Phase 1 (ColorBidding) under `spec`: per-vertex fates where a
/// vertex that decides carries `Some(color)` when colored from the main
/// palette and `None` when filtered bad — the latter is an algorithmic
/// outcome, not a fault. The run is wrapped in a `t10_color_bidding` span
/// when `spec` is traced.
///
/// The round budget always comes from the schedule (`2t + 4` rounds), so
/// `spec.budget` is ignored; every other spec field (faults, trace, metrics,
/// shards, params) applies as given. Without faults the run decides every
/// vertex; call [`SyncRun::strict`] for the all-decided `(colors, rounds)`
/// shape (experiment E2 reads it).
///
/// # Panics
///
/// Panics if `delta < 9` (the reserved palette `⌈√Δ⌉` must be ≥ 3), if
/// `delta > 140` (the main palette `Δ − ⌈√Δ⌉` must fit a 128-color
/// bitset), or if `g.max_degree() > delta`.
pub fn theorem10_phase1(
    g: &Graph,
    delta: usize,
    seed: u64,
    config: Theorem10Config,
    spec: &ExecSpec<'_>,
) -> SyncRun<Option<usize>> {
    assert!(
        delta >= 9,
        "Theorem 10 needs Δ ≥ 9 (reserved √Δ palette ≥ 3)"
    );
    assert!(
        main_palette(delta) <= MAX_MAIN_PALETTE,
        "Theorem 10 needs Δ ≤ 140: the main palette Δ − ⌈√Δ⌉ = {} exceeds the \
         {MAX_MAIN_PALETTE}-color bitset",
        main_palette(delta)
    );
    assert!(
        g.max_degree() <= delta,
        "graph degree {} exceeds Δ = {delta}",
        g.max_degree()
    );
    let schedule = config.schedule(delta);
    let budget = schedule_budget(&schedule);
    let phase1 = Phase1 {
        main_palette: main_palette(delta),
        delta,
        schedule,
        margin: config.palette_margin,
    };
    let _span = spec.trace.map(|t| t.span("t10_color_bidding"));
    run_sync(
        g,
        Mode::randomized(seed),
        &phase1,
        &spec.with_budget(Budget::rounds(budget)),
    )
}

/// Run the full Theorem-10 algorithm: Δ-color a forest with max degree ≤ Δ.
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics if `delta < 9`, if `delta > 140` (see [`theorem10_phase1`]), if
/// `g.max_degree() > delta`, or if the graph is not a forest (checked by the
/// Phase-2 finisher).
pub fn theorem10_color(
    g: &Graph,
    delta: usize,
    seed: u64,
    config: Theorem10Config,
) -> Result<Theorem10Outcome, SimError> {
    theorem10_color_traced(g, delta, seed, config, None)
}

/// [`theorem10_color`] with an optional trace buffer: Phase 1 runs under a
/// `t10_color_bidding` span (with per-round engine events) and the
/// deterministic finisher over the filtered vertices under a
/// `t10_filtered_finish` span.
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Same preconditions as [`theorem10_color`].
pub fn theorem10_color_traced(
    g: &Graph,
    delta: usize,
    seed: u64,
    config: Theorem10Config,
    trace: Option<&Trace>,
) -> Result<Theorem10Outcome, SimError> {
    let main_palette = main_palette(delta);
    let reserved = delta - main_palette;
    let phase1 =
        theorem10_phase1(g, delta, seed, config, &ExecSpec::new().traced(trace)).strict()?;
    let (phase1_colors, phase1_rounds) = (phase1.outputs, phase1.rounds);

    let bad: Vec<bool> = phase1_colors.iter().map(Option::is_none).collect();
    let stats = bad_component_stats(g, &bad);

    let mut labels: Vec<usize> = phase1_colors
        .iter()
        .map(|c| c.unwrap_or(UNCOLORED))
        .collect();
    let mut phase2_rounds = 0;
    if stats.bad_vertices > 0 {
        let _span = trace.map(|t| t.span("t10_filtered_finish"));
        // RandLOCAL synthesizes IDs: 4·log₂(n)+8 random bits per vertex,
        // unique w.h.p. (one free round; counted).
        let mut rng = derived_rng(seed, 0x7110);
        let ids: Vec<u64> = (0..g.n()).map(|_| rng.gen()).collect();
        let fin = be_forest_coloring(g, reserved, &ids, Some(&bad), main_palette);
        phase2_rounds = fin.rounds + 1;
        for v in g.vertices() {
            if bad[v] {
                labels[v] = *fin.labels.get(v);
            }
        }
    }

    Ok(Theorem10Outcome {
        coloring: ColoringOutcome {
            labels: Labeling::new(labels),
            palette: delta,
            rounds: phase1_rounds + phase2_rounds,
        },
        phase1_rounds,
        phase2_rounds,
        stats,
    })
}

/// Component statistics of the subgraph induced by `bad`.
pub(crate) fn bad_component_stats(g: &Graph, bad: &[bool]) -> ShatterStats {
    let bad_vertices = bad.iter().filter(|&&b| b).count();
    if bad_vertices == 0 {
        return ShatterStats {
            bad_vertices: 0,
            bad_components: 0,
            largest_bad_component: 0,
        };
    }
    let mut seen = vec![false; g.n()];
    let mut components = 0;
    let mut largest = 0;
    for start in g.vertices() {
        if !bad[start] || seen[start] {
            continue;
        }
        components += 1;
        let mut size = 0;
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(u) = stack.pop() {
            size += 1;
            for nb in g.neighbors(u) {
                if bad[nb.node] && !seen[nb.node] {
                    seen[nb.node] = true;
                    stack.push(nb.node);
                }
            }
        }
        largest = largest.max(size);
    }
    ShatterStats {
        bad_vertices,
        bad_components: components,
        largest_bad_component: largest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use local_lcl::problems::VertexColoring;
    use local_lcl::LclProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_reaches_cap_quickly() {
        let config = Theorem10Config::default();
        let s = config.schedule(64);
        assert_eq!(s[0], 1.0);
        assert!(*s.last().unwrap() >= 8.0 - 1e-9, "cap 64^0.5 = 8");
        assert!(s.len() <= 12, "log*-like schedule, got {} entries", s.len());
        // Quadrupling Δ adds at most a couple of iterations.
        let s2 = config.schedule(256);
        assert!(s2.len() <= s.len() + 3);
    }

    #[test]
    fn colors_random_trees_delta_16() {
        let mut rng = StdRng::seed_from_u64(60);
        for trial in 0..3 {
            let g = gen::random_tree_max_degree(400, 16, &mut rng);
            let out = theorem10_color(&g, 16, trial, Theorem10Config::default()).unwrap();
            VertexColoring::new(16)
                .validate(&g, &out.coloring.labels)
                .unwrap_or_else(|v| panic!("trial {trial}: {v}"));
        }
    }

    #[test]
    fn colors_complete_dary_tree() {
        let g = gen::complete_dary_tree(800, 16);
        let out = theorem10_color(&g, 16, 5, Theorem10Config::default()).unwrap();
        assert!(VertexColoring::new(16)
            .validate(&g, &out.coloring.labels)
            .is_ok());
    }

    #[test]
    fn colors_tree_with_delta_55() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = gen::random_tree_max_degree(800, 55, &mut rng);
        let out = theorem10_color(&g, 55, 9, Theorem10Config::default()).unwrap();
        assert!(VertexColoring::new(55)
            .validate(&g, &out.coloring.labels)
            .is_ok());
    }

    #[test]
    fn most_vertices_colored_in_phase1() {
        let mut rng = StdRng::seed_from_u64(62);
        let g = gen::random_tree_max_degree(2000, 25, &mut rng);
        let out = theorem10_color(&g, 25, 2, Theorem10Config::default()).unwrap();
        assert!(
            out.stats.bad_vertices * 5 <= g.n(),
            "phase 1 should color ≥ 80%: {} bad of {}",
            out.stats.bad_vertices,
            g.n()
        );
    }

    #[test]
    fn shattered_components_are_small() {
        let mut rng = StdRng::seed_from_u64(63);
        let g = gen::random_tree_max_degree(5000, 16, &mut rng);
        let out = theorem10_color(&g, 16, 3, Theorem10Config::default()).unwrap();
        // The theory bound is Δ⁴·log n — astronomically loose here; empirically
        // components are tiny. Assert a generous but meaningful cap.
        assert!(
            out.stats.largest_bad_component <= 200,
            "largest bad component {} too large",
            out.stats.largest_bad_component
        );
    }

    #[test]
    fn phase1_rounds_do_not_grow_with_n() {
        let mut rng = StdRng::seed_from_u64(64);
        let small = {
            let g = gen::random_tree_max_degree(200, 16, &mut rng);
            theorem10_color(&g, 16, 1, Theorem10Config::default()).unwrap()
        };
        let large = {
            let g = gen::random_tree_max_degree(8000, 16, &mut rng);
            theorem10_color(&g, 16, 1, Theorem10Config::default()).unwrap()
        };
        // Phase 1 runs a fixed 2t+1 schedule; the measured value is when the
        // last vertex settles, which can end a round early on lucky instances
        // but never grows with n.
        let bound = 2 * Theorem10Config::default().schedule(16).len() as u32 + 1;
        assert!(small.phase1_rounds <= bound);
        assert!(large.phase1_rounds <= bound);
        assert!(
            large.phase1_rounds.abs_diff(small.phase1_rounds) <= 1,
            "phase 1 depends only on Δ: {} vs {}",
            small.phase1_rounds,
            large.phase1_rounds
        );
    }

    #[test]
    fn uses_degree_slack_when_tree_degree_below_delta() {
        // Δ parameter larger than the actual maximum degree is allowed.
        let mut rng = StdRng::seed_from_u64(65);
        let g = gen::random_tree_max_degree(300, 8, &mut rng);
        let out = theorem10_color(&g, 16, 4, Theorem10Config::default()).unwrap();
        assert!(VertexColoring::new(16)
            .validate(&g, &out.coloring.labels)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "Δ ≥ 9")]
    fn rejects_small_delta() {
        let g = gen::path(5);
        let _ = theorem10_color(&g, 5, 0, Theorem10Config::default());
    }

    #[test]
    #[should_panic(
        expected = "Δ ≤ 140: the main palette Δ − ⌈√Δ⌉ = 129 exceeds the 128-color bitset"
    )]
    fn phase1_rejects_delta_beyond_the_bitset() {
        let g = gen::path(5);
        let _ = theorem10_phase1(&g, 141, 0, Theorem10Config::default(), &ExecSpec::new());
    }

    #[test]
    #[should_panic(
        expected = "Δ ≤ 140: the main palette Δ − ⌈√Δ⌉ = 129 exceeds the 128-color bitset"
    )]
    fn color_rejects_delta_beyond_the_bitset() {
        let g = gen::path(5);
        let _ = theorem10_color(&g, 141, 0, Theorem10Config::default());
    }

    #[test]
    fn stats_on_hand_built_bad_sets() {
        let g = gen::path(6);
        let bad = vec![true, true, false, true, false, true];
        let stats = bad_component_stats(&g, &bad);
        assert_eq!(stats.bad_vertices, 4);
        assert_eq!(stats.bad_components, 3);
        assert_eq!(stats.largest_bad_component, 2);
    }

    #[test]
    fn reproducible() {
        let mut rng = StdRng::seed_from_u64(66);
        let g = gen::random_tree_max_degree(300, 16, &mut rng);
        let a = theorem10_color(&g, 16, 8, Theorem10Config::default()).unwrap();
        let b = theorem10_color(&g, 16, 8, Theorem10Config::default()).unwrap();
        assert_eq!(a.coloring.labels, b.coloring.labels);
        assert_eq!(a.stats, b.stats);
    }
}

//! Theorem-level integration tests: each of the paper's results, exercised
//! end-to-end at test scale.

use exp_separation::algorithms::color::be_forest_coloring;
use exp_separation::algorithms::orientation::zero_round::best_zero_round_failure;
use exp_separation::algorithms::tree::{theorem10_color, Theorem10Config};
use exp_separation::graphs::{analysis, edge_coloring, gen};
use exp_separation::lcl::problems::{SinklessColoring, VertexColoring};
use exp_separation::lcl::LclProblem;
use exp_separation::model::ball;
use exp_separation::separation::derand::derandomize_priority_mis;
use exp_separation::separation::shatter::shatter_profile;
use exp_separation::separation::speedup::theorem6_demo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Theorem 3 at toy scale: the derandomized algorithm is *verified over the
/// entire instance space*, which is the strongest executable statement of
/// `Det(n) ≤ Rand(2^(n²))`.
#[test]
fn theorem3_derandomization_verified_exhaustively() {
    let report = derandomize_priority_mis(3, 2, 2, 99, 64).expect("union bound");
    assert_eq!(report.claimed_n, 512); // 2^(3²)
    assert!(report.instances >= 8 * 24);
    assert!(report.phis_tried <= 8, "the union bound predicts ~1 try");
}

/// Theorem 4's indistinguishability precondition: interior tree vertices
/// and high-girth-graph vertices have identical radius-t views, so any
/// t-round algorithm treats them identically — which is why tree lower
/// bounds transfer to high-girth graphs and back.
#[test]
fn theorem4_indistinguishability_on_lower_bound_instances() {
    let mut rng = StdRng::seed_from_u64(200);
    let g = gen::high_girth_regular(128, 3, 8, &mut rng).unwrap();
    let girth = analysis::girth(&g).unwrap();
    assert!(girth >= 8);
    let t = (girth - 1) / 2 - 1; // strictly inside the indistinguishability horizon
    let tree = gen::complete_dary_tree(3 * (1 << (t + 3)), 3);
    let interior = tree
        .vertices()
        .find(|&v| {
            let dist = analysis::bfs_distances(&tree, v);
            tree.vertices()
                .filter(|&u| dist[u] <= t)
                .all(|u| tree.degree(u) == 3)
        })
        .expect("interior vertex");
    let tree_view = ball::encode(&tree, interior, t, None, None);
    let graph_view = ball::encode(&g, 0, t, None, None);
    assert_eq!(tree_view, graph_view);
}

/// Theorem 4's base case, exactly: on Δ-regular edge-colored instances the
/// optimal zero-round failure is 1/Δ² per edge — so the *whole run* fails
/// with overwhelming probability on large instances.
#[test]
fn theorem4_zero_round_failure_floor() {
    for delta in [3usize, 5, 8] {
        let floor = best_zero_round_failure(delta);
        assert!((floor - 1.0 / (delta * delta) as f64).abs() < 1e-12);
    }
}

/// Theorem 5's workload sanity: the hard instances exist — Δ-regular,
/// Δ-edge-colorable, girth ≥ target — and a proper Δ-coloring of them is a
/// valid sinkless coloring (the reduction the proof rides on).
#[test]
fn theorem5_hard_instances_and_the_coloring_reduction() {
    let mut rng = StdRng::seed_from_u64(201);
    let g = gen::high_girth_regular(64, 3, 6, &mut rng).unwrap();
    assert!(g.is_regular(3));
    assert!(analysis::girth(&g).unwrap() >= 6);
    let psi = edge_coloring::konig(&g).unwrap();
    assert_eq!(psi.num_colors(), 3);
    // A proper 3-coloring (exists: bipartite graphs are 2-colorable, use 2
    // of the 3 colors) is automatically sinkless.
    let side = analysis::bipartition(&g).unwrap();
    let labels: exp_separation::lcl::Labeling<usize> = side.iter().map(|&s| s as usize).collect();
    assert!(VertexColoring::new(3).validate(&g, &labels).is_ok());
    let sinkless = SinklessColoring::new(3, psi);
    assert!(sinkless.validate(&g, &labels).is_ok());
}

/// Theorem 6: the black-box speedup turns a Θ(n) algorithm into one whose
/// total rounds are orders of magnitude smaller, on the same instance, with
/// a verified-proper output.
#[test]
fn theorem6_speedup_end_to_end() {
    let n = 2048;
    let g = gen::path(n);
    let report = theorem6_demo(&g, (0..n as u64).collect());
    assert!(report.slow_rounds as usize >= n - 1);
    assert!(report.transformed_total() < 200);
}

/// Theorem 7's Δ = 2 side: 3-coloring cycles is O(log* n) (Cole–Vishkin),
/// and 2-coloring them (odd n) is impossible — the LCL checker knows.
#[test]
fn theorem7_delta2_dichotomy() {
    use exp_separation::algorithms::color::cole_vishkin::cv_color_cycle;
    use exp_separation::model::IdAssignment;
    let fast = cv_color_cycle(&gen::cycle(4096), &IdAssignment::Sequential);
    assert!(
        fast.rounds <= 12,
        "log* n + O(1) rounds, got {}",
        fast.rounds
    );
    assert!(VertexColoring::new(3)
        .validate(&gen::cycle(4096), &fast.labels)
        .is_ok());
    // 2-coloring an odd cycle is globally infeasible: every labeling fails.
    let g = gen::cycle(5);
    let p = VertexColoring::new(2);
    for mask in 0u32..32 {
        let labels: exp_separation::lcl::Labeling<usize> =
            (0..5).map(|v| ((mask >> v) & 1) as usize).collect();
        assert!(
            p.validate(&g, &labels).is_err(),
            "mask {mask} cannot be proper"
        );
    }
}

/// Theorems 9 + 10 on the same instance: both produce proper Δ-colorings;
/// the deterministic round count exceeds the randomized one on large
/// instances (the separation), and the shattered components obey the
/// Δ⁴ log n bound.
#[test]
fn theorems_9_10_separation_and_shattering() {
    let delta = 16;
    let n = 1 << 14;
    let mut rng = StdRng::seed_from_u64(202);
    let g = gen::random_tree_max_degree(n, delta, &mut rng);
    let ids: Vec<u64> = (0..n as u64).collect();

    let det = be_forest_coloring(&g, delta, &ids, None, 0);
    assert!(VertexColoring::new(delta).validate(&g, &det.labels).is_ok());

    let rand = theorem10_color(&g, delta, 1, Theorem10Config::default()).unwrap();
    assert!(VertexColoring::new(delta)
        .validate(&g, &rand.coloring.labels)
        .is_ok());

    assert!(
        det.rounds > rand.coloring.rounds,
        "separation: det {} must exceed rand {}",
        det.rounds,
        rand.coloring.rounds
    );

    let bound = (delta as f64).powi(4) * (n as f64).log2();
    assert!(
        (rand.stats.largest_bad_component as f64) <= bound,
        "shattering bound violated: {} > {bound}",
        rand.stats.largest_bad_component
    );
}

/// The shattering profile of ANY randomized phase is measurable through the
/// generic combinator; statistics agree with the algorithm's own report.
#[test]
fn shatter_profile_agrees_with_theorem10_stats() {
    use exp_separation::algorithms::tree::theorem10::theorem10_phase1;
    use exp_separation::model::ExecSpec;
    let mut rng = StdRng::seed_from_u64(203);
    let g = gen::random_tree_max_degree(4000, 16, &mut rng);
    let status = theorem10_phase1(&g, 16, 3, Theorem10Config::default(), &ExecSpec::new())
        .strict()
        .unwrap()
        .outputs;
    let bad: Vec<bool> = status.iter().map(Option::is_none).collect();
    let profile = shatter_profile(&g, &bad);
    let out = theorem10_color(&g, 16, 3, Theorem10Config::default()).unwrap();
    assert_eq!(profile.undecided, out.stats.bad_vertices);
    assert_eq!(profile.largest(), out.stats.largest_bad_component);
    assert_eq!(profile.components(), out.stats.bad_components);
}

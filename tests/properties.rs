//! Property-based tests (proptest) on the core invariants, across crates.

use exp_separation::algorithms::color::linial_then_reduce;
use exp_separation::algorithms::mis::luby_mis;
use exp_separation::graphs::{analysis, edge_coloring, gen, GraphBuilder};
use exp_separation::lcl::problems::{Mis, VertexColoring};
use exp_separation::lcl::{verifier, Labeling, LclProblem};
use exp_separation::model::ball;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random simple graph from an edge-probability seed.
fn arb_gnp() -> impl Strategy<Value = exp_separation::graphs::Graph> {
    (4usize..40, 0u64..1000, 1u32..30).prop_map(|(n, seed, pct)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::gnp(n, f64::from(pct) / 100.0, &mut rng)
    })
}

/// Strategy: a random tree with a degree cap.
fn arb_tree() -> impl Strategy<Value = exp_separation::graphs::Graph> {
    (2usize..120, 3usize..8, 0u64..1000).prop_map(|(n, delta, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::random_tree_max_degree(n, delta, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn handshake_and_ports_always_consistent(g in arb_gnp()) {
        prop_assert!(g.handshake_holds());
        for v in g.vertices() {
            for (p, nb) in g.neighbors(v).iter().enumerate() {
                let back = g.neighbor(nb.node(), nb.back_port());
                prop_assert_eq!(back.node(), v);
                prop_assert_eq!(back.back_port(), p);
            }
        }
    }

    #[test]
    fn trees_are_trees(g in arb_tree()) {
        prop_assert!(analysis::is_tree(&g));
        prop_assert_eq!(analysis::girth(&g), None);
    }

    #[test]
    fn misra_gries_always_proper(g in arb_gnp()) {
        let col = edge_coloring::misra_gries(&g);
        prop_assert!(col.is_proper(&g));
        prop_assert!(col.num_colors() <= g.max_degree() + 1);
    }

    #[test]
    fn coloring_pipeline_always_proper(g in arb_gnp()) {
        let palette = g.max_degree() + 1;
        let out = linial_then_reduce(&g, palette, 7);
        prop_assert!(VertexColoring::new(palette).validate(&g, &out.labels).is_ok());
    }

    #[test]
    fn luby_always_valid(g in arb_gnp(), seed in 0u64..50) {
        let out = luby_mis(&g, seed, 10_000).unwrap();
        let labels: Labeling<bool> = out.in_set.into();
        prop_assert!(Mis::new().validate(&g, &labels).is_ok());
    }

    #[test]
    fn verifiers_agree_on_arbitrary_labelings(
        g in arb_gnp(),
        colors in proptest::collection::vec(0usize..4, 40),
    ) {
        // Arbitrary (usually invalid) labelings: both verifiers must return
        // the same verdict — and when rejecting, the same first violation.
        let labels: Labeling<usize> = colors.into_iter().take(g.n())
            .chain(std::iter::repeat(0)).take(g.n()).collect();
        let p = VertexColoring::new(4);
        let central = p.validate(&g, &labels);
        let distributed = verifier::check_distributed(&p, &g, &labels);
        match (central, distributed) {
            (Ok(()), Ok(())) => {}
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.vertex, b.vertex);
                prop_assert_eq!(a.reason, b.reason);
            }
            (a, b) => prop_assert!(false, "disagreement: {:?} vs {:?}", a, b),
        }
    }

    #[test]
    fn girth_matches_bruteforce_on_small_graphs(
        n in 3usize..9,
        mask in 0u64..(1 << 20),
    ) {
        // Build the graph selected by `mask` over all pairs; compare the
        // optimized girth against a brute-force shortest-cycle search.
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let mut b = GraphBuilder::new(n);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        let fast = analysis::girth(&g);
        // Brute force: try all cycle lengths from 3..=n via DFS paths.
        let brute = brute_force_girth(&g);
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn ball_encoding_equality_is_isomorphism_invariant_on_cycles(
        n in 6usize..20,
        t in 1usize..3,
    ) {
        // All interior-symmetric vertices of a cycle share encodings when the
        // asymmetric vertex 0 is outside their ball.
        let g = gen::cycle(n);
        let views = ball::encode_all(&g, t, None, None);
        for v in (t + 1)..(n - t).saturating_sub(1) {
            let w = v + 1;
            if w < n - t - 1 {
                prop_assert_eq!(&views[v], &views[w], "vertices {} and {}", v, w);
            }
        }
    }
}

/// Exhaustive shortest-cycle search for tiny graphs.
fn brute_force_girth(g: &exp_separation::graphs::Graph) -> Option<usize> {
    let n = g.n();
    let mut best: Option<usize> = None;
    // DFS enumerating simple paths from each start; close a cycle when the
    // start reappears.
    fn dfs(
        g: &exp_separation::graphs::Graph,
        start: usize,
        current: usize,
        visited: &mut Vec<bool>,
        depth: usize,
        best: &mut Option<usize>,
    ) {
        for nb in g.neighbors(current) {
            if nb.node() == start && depth >= 3 {
                if best.is_none_or(|b| depth < b) {
                    *best = Some(depth);
                }
            } else if !visited[nb.node()] && nb.node() > start {
                visited[nb.node()] = true;
                dfs(g, start, nb.node(), visited, depth + 1, best);
                visited[nb.node()] = false;
            }
        }
    }
    for start in 0..n {
        let mut visited = vec![false; n];
        visited[start] = true;
        dfs(g, start, start, &mut visited, 1, &mut best);
    }
    best
}

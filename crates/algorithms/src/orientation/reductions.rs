//! The constructive reductions between Δ-sinkless coloring and Δ-sinkless
//! orientation (the two directions behind Lemmas 1 and 2 of Brandt et al.,
//! which Theorem 4 iterates).
//!
//! On a Δ-regular graph with a proper Δ-edge coloring ψ:
//!
//! * **Coloring → orientation** ([`orientation_from_coloring`], Lemma 1's
//!   constructive core): orient each edge `e = {u, v}` *out of* the endpoint
//!   whose vertex color equals ψ(e). Every vertex sees each color exactly
//!   once among its incident edges, so `v`'s "color-matching" edge is
//!   out-going for `v` — unless both endpoints match, which is precisely a
//!   forbidden configuration of the coloring. Edges claimed by neither
//!   endpoint are oriented by an arbitrary local rule (here: toward the
//!   endpoint whose color is larger, tie impossible — equal colors with
//!   ψ(e) ∉ {them} is allowed and broken by port… see the code). Hence:
//!   a *valid* sinkless coloring yields a *valid* sinkless orientation, in
//!   one round.
//!
//! * **Orientation → coloring** ([`coloring_from_orientation`], Lemma 2's
//!   constructive core): each vertex picks the ψ-color of one of its
//!   out-edges. For any edge `e = {u, v}`, at most one endpoint has `e`
//!   out-going, and a proper edge coloring prevents the other endpoint from
//!   reproducing ψ(e) from a different out-edge — so *no* forbidden
//!   configuration can arise: a valid sinkless orientation yields a valid
//!   sinkless coloring, in one round.
//!
//! Together these make the round-elimination currency of the paper's lower
//! bound concrete and testable (see the round-trip tests below).

use local_graphs::edge_coloring::EdgeColoring;
use local_graphs::Graph;
use local_lcl::problems::Orientation;
use local_lcl::Labeling;

/// One-round reduction: a Δ-sinkless coloring into a Δ-sinkless orientation.
///
/// If `colors` is a valid sinkless coloring, the result is a valid sinkless
/// orientation. If `colors` contains forbidden configurations, the affected
/// edges fall back to the larger-color rule and the result may contain
/// sinks — mirroring how failure probability transfers in Lemma 1.
///
/// # Panics
///
/// Panics if the graph is not Δ-regular for `delta`, `psi` is not a
/// Δ-edge-coloring, or the label vector lengths mismatch.
pub fn orientation_from_coloring(
    g: &Graph,
    delta: usize,
    psi: &EdgeColoring,
    colors: &Labeling<usize>,
) -> Labeling<Orientation> {
    assert!(
        g.is_regular(delta),
        "sinkless problems live on Δ-regular graphs"
    );
    assert!(psi.num_colors() <= delta, "ψ must be a Δ-edge coloring");
    assert_eq!(colors.len(), g.n(), "one color per vertex");
    let mut labels: Vec<Orientation> = Vec::with_capacity(g.n());
    for v in g.vertices() {
        let ports: Vec<bool> = g
            .neighbors(v)
            .iter()
            .map(|nb| {
                let e_color = psi.color(nb.edge());
                let mine = *colors.get(v) == e_color;
                let theirs = *colors.get(nb.node()) == e_color;
                match (mine, theirs) {
                    (true, false) => true,  // I claim it: out for me.
                    (false, true) => false, // They claim it: in for me.
                    (true, true) => {
                        // Forbidden configuration of the input coloring: no
                        // consistent claim. Fall through to the tie rule so
                        // the orientation stays edge-consistent; the failure
                        // surfaces as a possible sink, as in Lemma 1.
                        tie_rule(*colors.get(v), *colors.get(nb.node()), v, nb.node())
                    }
                    (false, false) => {
                        tie_rule(*colors.get(v), *colors.get(nb.node()), v, nb.node())
                    }
                }
            })
            .collect();
        labels.push(Orientation(ports));
    }
    Labeling::new(labels)
}

/// Edge-consistent arbitrary rule for unclaimed edges: out of the endpoint
/// with the larger color; for equal colors, out of the endpoint that is
/// "first" under a fixed symmetric comparison the two endpoints agree on.
///
/// Note the `v`/`u` indices are simulator bookkeeping standing in for any
/// locally-shared edge identifier (e.g. the pair of port numbers, which both
/// endpoints learn in one exchange); no global ID is required.
fn tie_rule(my_color: usize, their_color: usize, v: usize, u: usize) -> bool {
    if my_color != their_color {
        my_color > their_color
    } else {
        v > u
    }
}

/// One-round reduction: a Δ-sinkless orientation into a Δ-sinkless coloring.
///
/// Each vertex takes the ψ-color of its first out-edge. If `orientation` is
/// valid (consistent, no sinks), the output has *no* forbidden
/// configuration. Vertices that are sinks (invalid input) fall back to
/// color 0, and the failure may surface as a forbidden edge — mirroring
/// Lemma 2's probability transfer.
///
/// # Panics
///
/// Panics on the same structural mismatches as
/// [`orientation_from_coloring`].
pub fn coloring_from_orientation(
    g: &Graph,
    delta: usize,
    psi: &EdgeColoring,
    orientation: &Labeling<Orientation>,
) -> Labeling<usize> {
    assert!(
        g.is_regular(delta),
        "sinkless problems live on Δ-regular graphs"
    );
    assert!(psi.num_colors() <= delta, "ψ must be a Δ-edge coloring");
    assert_eq!(orientation.len(), g.n(), "one orientation per vertex");
    let labels: Vec<usize> = g
        .vertices()
        .map(|v| {
            let o = orientation.get(v);
            g.neighbors(v)
                .iter()
                .enumerate()
                .find(|(p, _)| o.outgoing(*p))
                .map_or(0, |(_, nb)| psi.color(nb.edge()))
        })
        .collect();
    Labeling::new(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::sinkless_orientation;
    use local_graphs::edge_coloring::konig;
    use local_graphs::{analysis, gen};
    use local_lcl::problems::{SinklessColoring, SinklessOrientation};
    use local_lcl::LclProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(n_side: usize, d: usize, seed: u64) -> (Graph, EdgeColoring) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_bipartite_regular(n_side, d, &mut rng).unwrap();
        let psi = konig(&g).unwrap();
        (g, psi)
    }

    #[test]
    fn valid_orientation_yields_valid_coloring() {
        let (g, psi) = instance(40, 3, 1);
        // Get a valid sinkless orientation via the repair algorithm.
        let out = (0..20)
            .find_map(|seed| {
                let o = sinkless_orientation(&g, seed, 40).unwrap();
                (o.sinks == 0).then_some(o)
            })
            .expect("40 repair phases succeed quickly");
        SinklessOrientation::new(3)
            .validate(&g, &out.labels)
            .expect("valid orientation");
        let colors = coloring_from_orientation(&g, 3, &psi, &out.labels);
        SinklessColoring::new(3, psi)
            .validate(&g, &colors)
            .expect("Lemma 2 direction: no forbidden configuration can appear");
    }

    #[test]
    fn proper_coloring_yields_valid_orientation() {
        let (g, psi) = instance(32, 3, 2);
        // Bipartite ⇒ proper 2-coloring ⊂ Δ-coloring ⊂ sinkless coloring.
        let side = analysis::bipartition(&g).unwrap();
        let colors: Labeling<usize> = side.iter().map(|&s| s as usize).collect();
        SinklessColoring::new(3, psi.clone())
            .validate(&g, &colors)
            .expect("proper colorings are sinkless");
        let orientation = orientation_from_coloring(&g, 3, &psi, &colors);
        SinklessOrientation::new(3)
            .validate(&g, &orientation)
            .expect("Lemma 1 direction: valid coloring gives sinkless orientation");
    }

    #[test]
    fn round_trip_preserves_validity() {
        let (g, psi) = instance(24, 4, 3);
        let side = analysis::bipartition(&g).unwrap();
        let colors: Labeling<usize> = side.iter().map(|&s| s as usize).collect();
        let orientation = orientation_from_coloring(&g, 4, &psi, &colors);
        SinklessOrientation::new(4)
            .validate(&g, &orientation)
            .unwrap();
        let colors2 = coloring_from_orientation(&g, 4, &psi, &orientation);
        SinklessColoring::new(4, psi)
            .validate(&g, &colors2)
            .unwrap();
    }

    #[test]
    fn orientation_is_always_edge_consistent_even_on_bad_input() {
        // Garbage coloring in, edge-consistent orientation out (sinks may
        // appear; inconsistencies must not).
        let (g, psi) = instance(16, 3, 4);
        let garbage: Labeling<usize> = (0..g.n()).map(|v| v % 3).collect();
        let orientation = orientation_from_coloring(&g, 3, &psi, &garbage);
        for v in g.vertices() {
            for (p, nb) in g.neighbors(v).iter().enumerate() {
                let mine = orientation.get(v).outgoing(p);
                let theirs = orientation.get(nb.node()).outgoing(nb.back_port());
                assert_ne!(mine, theirs, "edge ({v},{}) inconsistent", nb.node());
            }
        }
    }

    #[test]
    fn failure_transfers_not_amplifies_in_lemma2_direction() {
        // Even from a *random* orientation (with sinks), the derived
        // coloring's forbidden-edge count is bounded by the sink count:
        // sinks are the only source of bad colors.
        let (g, psi) = instance(48, 3, 5);
        let o = sinkless_orientation(&g, 9, 0).unwrap(); // no repair: sinks likely
        let colors = coloring_from_orientation(&g, 3, &psi, &o.labels);
        let problem = SinklessColoring::new(3, psi);
        let violations = problem.violations(&g, &colors).len();
        // Each violation involves at least one fallback (sink) endpoint;
        // each sink can poison at most Δ edges with 2 reports each.
        assert!(
            violations <= 2 * 3 * o.sinks,
            "violations {violations} vs sinks {}",
            o.sinks
        );
    }
}

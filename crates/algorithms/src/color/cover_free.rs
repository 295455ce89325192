//! Polynomial cover-free set systems for Linial's one-round recoloring.
//!
//! Theorem 1 (Linial): a `k`-colored graph can be recolored with
//! `5Δ² log k` colors in one round. The engine of the proof is a
//! *Δ-cover-free family*: sets `S_1, …, S_k` over a ground set of size
//! `O(Δ² log k)` such that no `S_i` is covered by the union of any Δ others —
//! a vertex with old color `i` picks a point of `S_i` outside its neighbors'
//! sets as its new color.
//!
//! We use the explicit polynomial construction (Erdős–Frankl–Füredi):
//! identify color `c < q^(d+1)` with the degree-`≤ d` polynomial over
//! `GF(q)` whose coefficients are `c`'s base-`q` digits, and set
//! `S_c = {(x, p_c(x)) : x ∈ GF(q)}`. Distinct polynomials agree on ≤ `d`
//! points, so `q > Δ·d` makes the family Δ-cover-free, with ground set
//! `q² = O((Δ log_Δ k)²)`. That is slightly coarser than Linial's
//! probabilistic `5Δ² log k`, but iterates to `O(Δ²)` colors in `O(log* k)`
//! rounds all the same (documented in DESIGN.md).

/// Deterministic Miller–Rabin-free primality test by trial division (the
/// moduli we need are tiny — `q = O(Δ log k)`).
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Smallest prime `≥ n`.
fn next_prime(mut n: u64) -> u64 {
    if n <= 2 {
        return 2;
    }
    loop {
        if is_prime(n) {
            return n;
        }
        n += 1;
    }
}

/// Whether `q^e ≥ k`, computed without overflow.
fn pow_at_least(q: u64, e: u32, k: u64) -> bool {
    let mut acc: u128 = 1;
    for _ in 0..e {
        acc = acc.saturating_mul(u128::from(q));
        if acc >= u128::from(k) {
            return true;
        }
    }
    acc >= u128::from(k)
}

/// Smallest integer `r` with `r^e ≥ k`.
fn ceil_root(k: u64, e: u32) -> u64 {
    if k <= 1 {
        return 1;
    }
    let mut lo = 1u64;
    let mut hi = k;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let pow = (0..e).try_fold(1u128, |acc, _| {
            let next = acc * u128::from(mid);
            if next >= u128::from(k) {
                None // already big enough; stop early to avoid overflow
            } else {
                Some(next)
            }
        });
        let big_enough = pow.is_none() || pow.is_some_and(|p| p >= u128::from(k));
        if big_enough {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// A Δ-cover-free family realized by polynomials over `GF(q)`.
///
/// Maps old colors in `0..k` to new colors in `0..q²` such that any vertex,
/// knowing only its own old color and its ≤ Δ neighbors' old colors (all
/// distinct from its own), can pick a new color distinct from every
/// neighbor's possible pick that shares its evaluation point.
///
/// # Example
///
/// ```
/// use local_algorithms::color::PolyFamily;
///
/// let fam = PolyFamily::new(1 << 20, 4);
/// assert!(fam.palette() < 1 << 20, "one round must shrink a 2^20 palette");
/// let c = fam.recolor(12345, &[1, 2, 3, 4]);
/// assert!(c < fam.palette());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolyFamily {
    q: u64,
    d: u32,
    k: u64,
    delta: usize,
}

impl PolyFamily {
    /// Build the family for source palette `k` and maximum degree `delta`,
    /// choosing `(q, d)` to minimize the target palette `q²`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u64, delta: usize) -> Self {
        assert!(k > 0, "source palette must be nonempty");
        let delta = delta.max(1);
        let mut best: Option<PolyFamily> = None;
        for d in 1..=64u32 {
            let q = next_prime((delta as u64 * u64::from(d) + 1).max(ceil_root(k, d + 1)));
            let cand = PolyFamily { q, d, k, delta };
            if best.is_none_or(|b: PolyFamily| cand.palette_wide() < b.palette_wide()) {
                best = Some(cand);
            }
            // Once q is pinned by Δ·d alone, larger d only hurts.
            let covers_k = pow_at_least(q, d + 1, k);
            if covers_k && q == next_prime(delta as u64 * u64::from(d) + 1) {
                break;
            }
        }
        best.expect("loop runs at least once")
    }

    /// `q²` as a `u128` (the selection metric; never overflows).
    fn palette_wide(&self) -> u128 {
        u128::from(self.q) * u128::from(self.q)
    }

    /// Source palette size `k`.
    pub fn source_palette(&self) -> u64 {
        self.k
    }

    /// Target palette size `q²`.
    ///
    /// # Panics
    ///
    /// Panics if `q²` does not fit `u64` — such a family never shrinks its
    /// source palette and is filtered out by [`crate::color::LinialSchedule`];
    /// query [`PolyFamily::shrinks`] first when in doubt.
    pub fn palette(&self) -> u64 {
        u64::try_from(self.palette_wide()).expect("palette exceeds u64")
    }

    /// Whether applying this family actually shrinks the palette
    /// (`q² < k`).
    pub fn shrinks(&self) -> bool {
        self.palette_wide() < u128::from(self.k)
    }

    /// The field size `q`.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// The polynomial degree bound `d`.
    pub fn degree_bound(&self) -> u32 {
        self.d
    }

    /// Evaluate color `c`'s polynomial at `x` (both `< q`… `x < q`).
    fn eval(&self, c: u64, x: u64) -> u64 {
        // Horner over the base-q digits of c, most significant first.
        let mut digits = [0u64; 65];
        let mut cc = c;
        let len = self.d as usize + 1;
        for slot in digits.iter_mut().take(len) {
            *slot = cc % self.q;
            cc /= self.q;
        }
        let mut acc = 0u64;
        for i in (0..len).rev() {
            acc = (acc * x + digits[i]) % self.q;
        }
        acc
    }

    /// The one-round recoloring rule: given this vertex's old color and its
    /// neighbors' old colors, return the new color in `0..q²`.
    ///
    /// Neighbors sharing the vertex's own color are ignored (the guarantee
    /// requires a proper input coloring; with an improper input the output
    /// may be improper too — garbage in, garbage out).
    ///
    /// # Panics
    ///
    /// Panics if more than Δ *distinct-colored* neighbors are supplied and no
    /// safe evaluation point exists, or if a color is `≥ k`.
    pub fn recolor(&self, own: u64, neighbors: &[u64]) -> u64 {
        assert!(
            own < self.k,
            "color {own} outside source palette {}",
            self.k
        );
        for &nb in neighbors {
            assert!(nb < self.k, "color {nb} outside source palette {}", self.k);
        }
        for x in 0..self.q {
            let mine = self.eval(own, x);
            let clash = neighbors
                .iter()
                .any(|&nb| nb != own && self.eval(nb, x) == mine);
            if !clash {
                return x * self.q + mine;
            }
        }
        panic!(
            "cover-free family exhausted (q = {}, d = {}, {} neighbors): \
             input coloring violated the Δ = {} bound",
            self.q,
            self.d,
            neighbors.len(),
            self.delta
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(1));
        assert!(!is_prime(9));
        assert!(is_prime(97));
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(11), 11);
        assert_eq!(next_prime(0), 2);
    }

    #[test]
    fn ceil_roots() {
        assert_eq!(ceil_root(1, 3), 1);
        assert_eq!(ceil_root(8, 3), 2);
        assert_eq!(ceil_root(9, 3), 3);
        assert_eq!(ceil_root(27, 3), 3);
        assert_eq!(ceil_root(28, 3), 4);
        assert_eq!(ceil_root(u64::MAX, 64), 2);
        assert_eq!(ceil_root(100, 2), 10);
        assert_eq!(ceil_root(101, 2), 11);
    }

    #[test]
    fn family_shrinks_large_palettes() {
        for delta in [2usize, 3, 8, 16] {
            let fam = PolyFamily::new(1 << 40, delta);
            assert!(
                fam.palette() < 1 << 40,
                "Δ={delta}: palette {} must shrink",
                fam.palette()
            );
            assert!(fam.q() > (delta as u64) * u64::from(fam.degree_bound()));
        }
    }

    #[test]
    fn distinct_colors_get_distinct_polynomials() {
        let fam = PolyFamily::new(1000, 3);
        // Two distinct colors agree on at most d points.
        for (a, b) in [(0u64, 1), (5, 900), (123, 124)] {
            let agreements = (0..fam.q())
                .filter(|&x| fam.eval(a, x) == fam.eval(b, x))
                .count();
            assert!(
                agreements <= fam.degree_bound() as usize,
                "colors {a},{b} agree on {agreements} > d points"
            );
        }
    }

    #[test]
    fn recolor_avoids_all_neighbors() {
        let fam = PolyFamily::new(10_000, 4);
        // Exhaustive-ish check over random tuples.
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..200 {
            let own = next() % 10_000;
            let neighbors: Vec<u64> = (0..4)
                .map(|_| {
                    let mut c = next() % 10_000;
                    if c == own {
                        c = (c + 1) % 10_000;
                    }
                    c
                })
                .collect();
            let mine = fam.recolor(own, &neighbors);
            let x = mine / fam.q();
            let y = mine % fam.q();
            // The chosen point (x, p_own(x)) lies outside every neighbor's
            // set S_nb, so no neighbor can ever produce the same new color.
            for &nb in &neighbors {
                assert_ne!(fam.eval(nb, x), y, "neighbor {nb} collides at x = {x}");
            }
        }
    }

    #[test]
    fn recolor_is_proper_on_simulated_graph() {
        // Simulate the actual use: every vertex applies recolor with its
        // neighbors' colors; the result must be a proper coloring.
        use local_graphs::gen;
        let g = gen::complete(5);
        let fam = PolyFamily::new(100, 4);
        let old: Vec<u64> = vec![10, 20, 30, 40, 50];
        let new: Vec<u64> = g
            .vertices()
            .map(|v| {
                let nbs: Vec<u64> = g.neighbors(v).iter().map(|nb| old[nb.node()]).collect();
                fam.recolor(old[v], &nbs)
            })
            .collect();
        for &(u, v) in g.edges() {
            assert_ne!(new[u], new[v], "edge ({u},{v}) monochromatic after recolor");
        }
    }

    #[test]
    #[should_panic(expected = "outside source palette")]
    fn recolor_rejects_out_of_range() {
        let fam = PolyFamily::new(10, 2);
        let _ = fam.recolor(10, &[]);
    }

    #[test]
    fn fixpoint_palette_is_quadratic_in_delta() {
        for delta in [2usize, 4, 8, 16, 32] {
            // Iterate the family to its fixpoint.
            let mut k = u64::MAX;
            for _ in 0..64 {
                let fam = PolyFamily::new(k, delta);
                if fam.palette() >= k {
                    break;
                }
                k = fam.palette();
            }
            let bound = 40 * (delta as u64) * (delta as u64);
            assert!(
                k <= bound,
                "Δ={delta}: fixpoint {k} exceeds β·Δ² bound {bound}"
            );
        }
    }
}

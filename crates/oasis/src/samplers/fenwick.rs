//! An incremental Fenwick (binary indexed) tree over categorical weights.
//!
//! [`CategoricalCdf`](super::CategoricalCdf) freezes a distribution into
//! cumulative sums: O(N) to build, O(log N) per draw, but *any* weight change
//! forces a full rebuild.  That is the cost profile behind the OASIS
//! `cdf_rebuilds` counter — every applied label dirties the proposal and the
//! next propose pays O(N).  A Fenwick tree stores the same partial-sum
//! information implicitly, so a single weight update is O(log N) and a
//! categorical draw is still one uniform variate plus an O(log N) descent:
//!
//! | operation | `CategoricalCdf` | [`FenwickTree`] |
//! |---|---|---|
//! | build | O(N) | O(N) |
//! | draw | O(log N) | O(log N) |
//! | update one weight | O(N) rebuild | O(log² N), canonical (see [`FenwickTree::set`]) |
//! | prefix sum | O(1) | O(log N) |
//!
//! The sharded sampler keeps one leaf per shard and re-weights the routed
//! shard on every label, making per-label proposal cost independent of the
//! total pool size.  `CategoricalCdf` stays as the property-test oracle: on
//! integer-valued weights both structures compute *exact* sums, so draws
//! driven by the same RNG stream must agree index-for-index.
//!
//! Internally the classic 1-based layout is used: `tree[i]` holds the sum of
//! the `i & (-i)` leaves ending at `i`.  The sampling descent walks the
//! implicit binary structure top-down (Fenwick "binary lifting"), consuming
//! exactly one `f64` from the RNG — the same uniform-variate discipline as
//! [`sample_from_cumulative`](super::sample_from_cumulative), so degenerate
//! (zero/non-finite) totals fall back to a uniform index draw exactly like
//! the CDF path.

use rand::Rng;

/// A Fenwick tree of non-negative `f64` weights supporting O(log N) point
/// updates, prefix sums and categorical draws.
#[derive(Debug, Clone, PartialEq)]
pub struct FenwickTree {
    /// 1-based implicit tree; `tree[0]` is unused padding.
    tree: Vec<f64>,
    /// The raw leaf weights, kept so `set` can compute deltas exactly and
    /// `weight(i)` is O(1).
    leaves: Vec<f64>,
}

impl FenwickTree {
    /// Build a tree over `weights` (non-negative, not necessarily
    /// normalised).  O(N) via the standard parent-propagation construction.
    ///
    /// # Panics
    /// Panics if `weights` is empty (a categorical distribution needs at
    /// least one category — same contract as `CategoricalCdf::new`).
    pub fn from_weights(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty(),
            "categorical distribution needs at least one weight"
        );
        let n = weights.len();
        let mut tree = vec![0.0; n + 1];
        tree[1..].copy_from_slice(weights);
        for i in 1..=n {
            let parent = i + lowbit(i);
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        FenwickTree {
            tree,
            leaves: weights.to_vec(),
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether there are zero categories (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The current weight of leaf `index`.
    pub fn weight(&self, index: usize) -> f64 {
        self.leaves[index]
    }

    /// Replace the weight of leaf `index` with `weight`, recomputing the
    /// O(log N) ancestor nodes on the update path.
    ///
    /// Each ancestor is recomputed *from its children in construction order*
    /// rather than nudged by the delta (`tree[i] += delta` would accumulate
    /// different rounding than a fresh build).  This keeps a canonical
    /// invariant: after any update sequence, the tree is bit-identical to
    /// `from_weights` over the current leaves — which is what lets a restored
    /// checkpoint rebuild the tree from leaf weights and continue drawing the
    /// exact same stream.  Cost is O(log² N) additions, still independent of
    /// the leaf count on the hot path.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn set(&mut self, index: usize, weight: f64) {
        if self.leaves[index].to_bits() == weight.to_bits() {
            return;
        }
        self.leaves[index] = weight;
        let n = self.leaves.len();
        let mut node = index + 1;
        while node <= n {
            // `from_weights` forms tree[node] as the leaf plus each child
            // block in ascending index order (node-b/2, node-b/4, …, node-1
            // for b = lowbit(node)); reproduce that exact summation order.
            let mut sum = self.leaves[node - 1];
            let mut step = lowbit(node) >> 1;
            while step > 0 {
                sum += self.tree[node - step];
                step >>= 1;
            }
            self.tree[node] = sum;
            node += lowbit(node);
        }
    }

    /// Sum of the first `count` weights, `Σ_{i<count} w_i`, in O(log N).
    ///
    /// # Panics
    /// Panics if `count > len()`.
    pub fn prefix_sum(&self, count: usize) -> f64 {
        assert!(count <= self.leaves.len());
        let mut sum = 0.0;
        let mut i = count;
        while i > 0 {
            sum += self.tree[i];
            i -= lowbit(i);
        }
        sum
    }

    /// Total weight `Σ w_i`, in O(log N).
    pub fn total(&self) -> f64 {
        self.prefix_sum(self.leaves.len())
    }

    /// Draw one index with probability proportional to its weight, using a
    /// single uniform variate and an O(log N) top-down descent.
    ///
    /// A zero or non-finite total falls back to a uniform index draw — the
    /// same degenerate-distribution contract as
    /// [`sample_from_cumulative`](super::sample_from_cumulative).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        debug_assert!(!self.leaves.is_empty());
        let total = self.total();
        if total <= 0.0 || !total.is_finite() {
            return rng.gen_range(0..self.leaves.len());
        }
        let target = rng.gen::<f64>() * total;
        self.descend(target)
    }

    /// The first index whose *cumulative* weight reaches `target` — the same
    /// partition the binary search in `sample_from_cumulative` computes, so a
    /// shared `target` lets tests compare the two index-for-index.
    pub(crate) fn descend(&self, target: f64) -> usize {
        let n = self.leaves.len();
        // Walk down from the highest power-of-two block: at each step, if the
        // whole left block's sum is strictly below the (remaining) target,
        // consume it and move right.  This lands on the first index whose
        // inclusive prefix sum is >= target.
        let mut index = 0usize; // count of leaves fully consumed
        let mut remaining = target;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = index + step;
            if next <= n && self.tree[next] < remaining {
                remaining -= self.tree[next];
                index = next;
            }
            step >>= 1;
        }
        // `index` leaves sum below target; the answer is the next leaf,
        // clamped like the CDF path for target == total edge rounding.
        index.min(n - 1)
    }
}

/// Lowest set bit of `i` (`i & -i`), the Fenwick stride.
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::super::{fill_cumulative, CategoricalCdf};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn flat_prefix(weights: &[f64], count: usize) -> f64 {
        // Fold from +0.0 explicitly: `Iterator::sum` seeds with -0.0, whose
        // sign survives the empty prefix and breaks the bitwise comparison.
        weights[..count].iter().fold(0.0, |acc, &w| acc + w)
    }

    #[test]
    fn construction_matches_flat_prefix_sums() {
        let weights = [3.0, 0.0, 5.0, 1.0, 2.0, 2.0, 7.0];
        let tree = FenwickTree::from_weights(&weights);
        assert_eq!(tree.len(), 7);
        assert!(!tree.is_empty());
        for count in 0..=weights.len() {
            assert_eq!(
                tree.prefix_sum(count).to_bits(),
                flat_prefix(&weights, count).to_bits(),
                "prefix {count}"
            );
        }
        assert_eq!(tree.total(), 20.0);
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(tree.weight(i), w);
        }
    }

    #[test]
    fn set_updates_sums_exactly_on_integer_weights() {
        let mut weights = vec![1.0f64; 16];
        let mut tree = FenwickTree::from_weights(&weights);
        // Arbitrary integer-valued updates stay exact (no rounding below 2^53).
        let updates = [(0usize, 9.0), (15, 0.0), (7, 123.0), (8, 2.0), (7, 0.0)];
        for &(i, w) in &updates {
            tree.set(i, w);
            weights[i] = w;
            for count in 0..=weights.len() {
                assert_eq!(tree.prefix_sum(count), flat_prefix(&weights, count));
            }
        }
        assert_eq!(tree.total(), weights.iter().sum::<f64>());
    }

    #[test]
    fn single_leaf_total_is_the_leaf_bitwise() {
        // The sharded K=1 parity argument relies on total() == the single
        // leaf value bit-for-bit, so the selection probability is exactly 1.
        let tree = FenwickTree::from_weights(&[0.123456789e-3]);
        assert_eq!(tree.total().to_bits(), 0.123456789e-3f64.to_bits());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(tree.sample(&mut rng), 0);
        }
    }

    #[test]
    fn updates_keep_the_tree_canonical_on_real_weights() {
        // `set` must leave the internal nodes bit-identical to a fresh build
        // over the current leaves — the exact-resume property the sharded
        // checkpoint path relies on.  Real-valued weights are the hard case:
        // a delta-style `tree[i] += w_new - w_old` would drift here.
        let mut tree = FenwickTree::from_weights(&[0.3, 0.11, 7.9, 0.001, 2.5, 0.7]);
        let updates = [
            (0usize, 1.0 / 3.0),
            (3, 9.25e3),
            (5, 0.1 + 0.2), // deliberately not representable as 0.3
            (3, 1e-12),
            (2, 0.0),
        ];
        for &(i, w) in &updates {
            tree.set(i, w);
            let fresh = FenwickTree::from_weights(&tree.leaves);
            for (node, (&a, &b)) in tree.tree.iter().zip(fresh.tree.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "node {node} after set({i}, {w})");
            }
        }
    }

    #[test]
    fn degenerate_totals_fall_back_to_uniform_like_the_cdf() {
        let tree = FenwickTree::from_weights(&[0.0, 0.0, 0.0]);
        let mut seen = [false; 3];
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            seen[tree.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Exact oracle: on integer-valued weights (sums far below 2^53 so
        /// f64 addition is exact whatever the association), every prefix sum
        /// equals the flat scan after an arbitrary update sequence.
        #[test]
        fn prefix_sums_exact_after_arbitrary_integer_updates(
            initial in proptest::collection::vec(0u32..1000, 1..128),
            updates in proptest::collection::vec((0usize..128, 0u32..1000), 0..64),
        ) {
            let mut weights: Vec<f64> = initial.iter().map(|&w| f64::from(w)).collect();
            let mut tree = FenwickTree::from_weights(&weights);
            for &(index, w) in &updates {
                let index = index % weights.len();
                tree.set(index, f64::from(w));
                weights[index] = f64::from(w);
            }
            for count in 0..=weights.len() {
                proptest::prop_assert_eq!(
                    tree.prefix_sum(count).to_bits(),
                    flat_prefix(&weights, count).to_bits()
                );
            }
        }

        /// Draw oracle: with integer weights, the Fenwick descent and the
        /// `CategoricalCdf` binary search fed the *same* RNG stream pick
        /// identical indices on every draw.
        #[test]
        fn draws_identical_to_categorical_cdf_on_integer_weights(
            raw in proptest::collection::vec(0u32..1000, 1..128),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let weights: Vec<f64> = raw.iter().map(|&w| f64::from(w)).collect();
            let tree = FenwickTree::from_weights(&weights);
            let cdf = CategoricalCdf::new(&weights);
            let mut rng_tree = StdRng::seed_from_u64(seed);
            let mut rng_cdf = StdRng::seed_from_u64(seed);
            for draw in 0..256 {
                proptest::prop_assert_eq!(
                    tree.sample(&mut rng_tree),
                    cdf.sample(&mut rng_cdf),
                    "draw {}", draw
                );
            }
        }

        /// Shared-target audit: the descent and the cumulative binary search
        /// partition on the same quantity.  Integer weights keep every
        /// partial sum exact, so the two are comparable index-for-index for
        /// *any* target, not just away from rounding boundaries.
        #[test]
        fn descent_matches_binary_search_over_fenwick_prefix_sums(
            ints in proptest::collection::vec(0u32..1000, 1..128),
            unit in 0.0f64..1.0,
        ) {
            let raw: Vec<f64> = ints.iter().map(|&w| f64::from(w)).collect();
            let tree = FenwickTree::from_weights(&raw);
            let total = tree.total();
            proptest::prop_assume!(total > 0.0 && total.is_finite());
            let target = unit * total;
            // Cumulative sums as the *tree* computes them, so both sides
            // search the identical sequence.
            let sums: Vec<f64> = (1..=raw.len()).map(|c| tree.prefix_sum(c)).collect();
            let by_search = sums.partition_point(|&c| c < target).min(raw.len() - 1);
            proptest::prop_assert_eq!(tree.descend(target), by_search);
        }

        /// Distributional audit vs the rebuilt-CDF path on arbitrary real
        /// weights (where bitwise sum equality cannot hold): same seed, both
        /// samplers' empirical frequencies agree to sampling noise.
        #[test]
        fn real_weight_draws_agree_distributionally_with_cdf(
            weights in proptest::collection::vec(0.01f64..10.0, 2..20),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let draws = 4000usize;
            let tree = FenwickTree::from_weights(&weights);
            let mut cumulative = Vec::new();
            fill_cumulative(weights.iter().copied(), &mut cumulative);
            let cdf = CategoricalCdf::new(&weights);
            let mut tree_counts = vec![0usize; weights.len()];
            let mut cdf_counts = vec![0usize; weights.len()];
            let mut rng_tree = StdRng::seed_from_u64(seed);
            let mut rng_cdf = StdRng::seed_from_u64(seed);
            for _ in 0..draws {
                tree_counts[tree.sample(&mut rng_tree)] += 1;
                cdf_counts[cdf.sample(&mut rng_cdf)] += 1;
            }
            for (k, (&t, &c)) in tree_counts.iter().zip(cdf_counts.iter()).enumerate() {
                let diff = (t as f64 - c as f64).abs() / draws as f64;
                proptest::prop_assert!(
                    diff < 0.01,
                    "category {} frequency drift {} (tree {}, cdf {})", k, diff, t, c
                );
            }
        }
    }
}

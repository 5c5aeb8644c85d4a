//! Equal-size stratification.
//!
//! The alternative stratifier mentioned in the paper (from Druck & McCallum,
//! CIKM 2011): sort the pool by similarity score and cut it into `K` strata of
//! (as near as possible) equal cardinality.

use super::{Strata, Stratifier};
use crate::error::{Error, Result};
use crate::pool::ScoredPool;

/// Equal-count stratifier: `K` strata of (almost) equal size in score order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqualSizeStratifier {
    /// Number of strata `K`.
    pub strata_count: usize,
}

impl EqualSizeStratifier {
    /// Create an equal-size stratifier producing `strata_count` strata.
    pub fn new(strata_count: usize) -> Self {
        EqualSizeStratifier { strata_count }
    }
}

impl Stratifier for EqualSizeStratifier {
    fn stratify(&self, pool: &ScoredPool) -> Result<Strata> {
        if self.strata_count == 0 {
            return Err(Error::InvalidParameter {
                name: "strata_count",
                message: "must be at least 1".to_string(),
            });
        }
        super::check_pool_fits(pool)?;
        let n = pool.len();
        let k = self.strata_count.min(n);

        // Order items by score (ties broken by index for determinism).
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            pool.score(a as usize)
                .partial_cmp(&pool.score(b as usize))
                .expect("scores are finite by construction")
                .then(a.cmp(&b))
        });

        // Split into k contiguous chunks of near-equal size. The first
        // `n % k` strata receive one extra item.
        let base = n / k;
        let extra = n % k;
        let mut offsets = Vec::with_capacity(k + 1);
        offsets.push(0);
        for stratum_index in 0..k {
            let size = base + usize::from(stratum_index < extra);
            offsets.push(offsets[stratum_index] + size);
        }
        Strata::from_members(pool, order, offsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pool(n: usize) -> ScoredPool {
        let mut rng = StdRng::seed_from_u64(17);
        let scores: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let predictions: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
        ScoredPool::new(scores, predictions).unwrap()
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        let pool = random_pool(1003);
        let strata = EqualSizeStratifier::new(10).stratify(&pool).unwrap();
        assert_eq!(strata.len(), 10);
        let sizes: Vec<usize> = (0..10).map(|k| strata.size(k)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 1003);
    }

    #[test]
    fn strata_ordered_by_score() {
        let pool = random_pool(500);
        let strata = EqualSizeStratifier::new(7).stratify(&pool).unwrap();
        let means = strata.mean_scores();
        for w in means.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn every_item_allocated_once() {
        let pool = random_pool(321);
        let strata = EqualSizeStratifier::new(13).stratify(&pool).unwrap();
        let mut seen = vec![false; pool.len()];
        for k in 0..strata.len() {
            for i in strata.members(k).iter().map(|&i| i as usize) {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn more_strata_than_items_caps_at_pool_size() {
        let pool = random_pool(5);
        let strata = EqualSizeStratifier::new(20).stratify(&pool).unwrap();
        assert_eq!(strata.len(), 5);
        for k in 0..5 {
            assert_eq!(strata.size(k), 1);
        }
    }

    #[test]
    fn zero_strata_rejected() {
        let pool = random_pool(5);
        assert!(EqualSizeStratifier::new(0).stratify(&pool).is_err());
    }

    #[test]
    fn deterministic_for_tied_scores() {
        let pool = ScoredPool::new(vec![0.5; 9], vec![false; 9]).unwrap();
        let a = EqualSizeStratifier::new(3).stratify(&pool).unwrap();
        let b = EqualSizeStratifier::new(3).stratify(&pool).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }
}
